"""Quantitative comparison of classical, WKBJ and Fourier-grid results.

Produces per-state eigenvalue error tables, density distances (L1 and
interior sup-norm) and deterministic CSV/JSON exports. Quantum densities are
smoothed either with a fixed boxcar (`local_average`) or with a boxcar whose
width follows the local de Broglie oscillation period (`debroglie_average`);
the latter is what the comparison pipeline uses, since a fixed window cannot
track the oscillation period growing toward the turning points.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .classical import Provenance, SampledDensity, classical_density, momentum_field
from .errors import GridMismatch, StateRangeMismatch, WindowTooWide
from .fgh import FghConfig, Spectrum, fgh_density, padded_box, solve
from .kinetics import BoundStateProblem
from .potentials import turning_points
from .wkbj import WkbjState, quantize, wkbj_wavefunction

#: fraction of d excluded at each turning point by the interior sup-norm
SUP_MARGIN = 0.02
#: cap on the adaptive averaging window, as a fraction of d
MAX_WINDOW_FRACTION = 0.5

_COLUMN_FOR = {
    Provenance.CLASSICAL: "rho_cl",
    Provenance.WKBJ: "rho_wkbj",
    Provenance.WKBJ_AVERAGED: "rho_wkbj_averaged",
    Provenance.FGH: "rho_fgh",
}


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
    config_echo: dict = field(default_factory=dict)


def compare_spectra(fgh_spectrum: Spectrum, wkbj_states: Iterable[WkbjState],
                    config_echo: Optional[dict] = None) -> ComparisonReport:
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
    return ComparisonReport(per_state=tuple(rows), config_echo=config_echo or {})


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


def _renormalized(density: SampledDensity, values: np.ndarray) -> SampledDensity:
    return replace(density, values=values / replace(density, values=values).integral())


def local_average(density: SampledDensity, window: Union[float, str] = "auto") -> SampledDensity:
    """Fixed-width moving average; auto window is d/(n + 1/2).

    Window 0 returns the density unchanged. The result is renormalized to
    unit integral over the original normalization domain.
    """
    if window == "auto":
        if density.support is None or density.n is None:
            raise ValueError("auto window needs a density with support and quantum number")
        window = density.support.d / (density.n + 0.5)
    if window == 0:
        return density
    span = density.support.d if density.support is not None else (
        density.grid[-1] - density.grid[0])
    if window > span:
        raise WindowTooWide(f"window {window} exceeds support length {span}")
    dx = _uniform_spacing(density.grid)
    half = max(int(round(window / dx)) // 2, 0)
    smoothed = _masked_boxcar(density.values, np.full(len(density.grid), half, dtype=int))
    return _renormalized(density, smoothed)


def debroglie_average(problem: BoundStateProblem, energy: float,
                      density: SampledDensity) -> SampledDensity:
    """Moving average matched to the local density-oscillation period.

    The squared WKBJ wavefunction oscillates with spatial period
    pi*hbar / T^-1(E - V(x)); averaging over exactly that window removes the
    oscillation everywhere it is resolved. The width is capped at
    MAX_WINDOW_FRACTION * d (also used outside the classical region, where
    no period is defined).
    """
    tps = density.support or turning_points(problem, energy)
    dx = _uniform_spacing(density.grid)

    w_max = MAX_WINDOW_FRACTION * tps.d
    widths = np.full(len(density.grid), w_max)
    inside = (density.grid > tps.a) & (density.grid < tps.b)
    p = momentum_field(problem, energy)(density.grid[inside])
    with np.errstate(divide="ignore"):
        widths[inside] = np.minimum(np.pi * problem.hbar / np.maximum(p, 1e-300), w_max)
    half = (widths / (2.0 * dx)).astype(int)
    smoothed = _masked_boxcar(density.values, half)
    return _renormalized(density, smoothed)


def density_distance(d1: SampledDensity, d2: SampledDensity,
                     metric: str = "L1") -> float:
    """L1 = dx * sum |rho1 - rho2| over the support overlap, or interior sup-norm.

    Samples where either density is non-finite (turning-point sentinels) are
    excluded. The sup-norm drops a margin of 2% of d at each turning point.
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
        mask = finite & (g1 >= a) & (g1 <= b)
        return float(dx * np.sum(np.abs(d1.values[mask] - d2.values[mask])))
    if metric == "sup_interior":
        margin = SUP_MARGIN * (b - a)
        mask = finite & (g1 >= a + margin) & (g1 <= b - margin)
        return float(np.max(np.abs(d1.values[mask] - d2.values[mask])))
    raise ValueError(f"unknown metric {metric!r}")


def build_report(problem: BoundStateProblem, ns: Sequence[int],
                 fgh_config: Optional[FghConfig] = None,
                 config_echo: Optional[dict] = None):
    """Full comparison pipeline: spectra, densities on the FGH grid, metrics.

    Returns (report, densities): the densities are the per-state classical,
    WKBJ and FGH distributions tabulated on the shared FGH grid, ready for
    export. Classical and WKBJ curves are evaluated at the WKBJ energy; the
    smoothed-FGH metric uses each FGH state's own energy.
    """
    ns = sorted(set(int(n) for n in ns))
    cfg = fgh_config or FghConfig()
    cfg = replace(cfg, n_states=max(cfg.n_states, max(ns) + 1))
    wkbj_states = [quantize(problem, n) for n in ns]
    top = wkbj_states[-1]
    if cfg.box in ("auto", None) and top.n == cfg.n_states - 1:
        # the auto box comes from this very level: reuse its turning points
        cfg = replace(cfg, box=padded_box(top.turning_points))
    spectrum = solve(problem, cfg)
    report = compare_spectra(spectrum, wkbj_states, config_echo)

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


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}" if math.isfinite(x) else "null"
    return "null" if x is None else str(x)


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


def _write_lines(path: Path, lines: Iterable[str]) -> Path:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_density_tables(densities: Sequence[SampledDensity],
                         out_dir: Union[str, Path]) -> list:
    """One CSV per quantum number with an x column plus one column per route."""
    out = Path(out_dir)
    written = []
    by_state = {}
    for rho in densities:
        by_state.setdefault(rho.n, []).append(rho)
    for n in sorted(k for k in by_state if k is not None):
        group = by_state[n]
        header = ",".join(["x"] + [_COLUMN_FOR[rho.provenance] for rho in group])
        columns = [group[0].grid] + [rho.values for rho in group]
        cells = [list(map(_fmt, column.tolist())) for column in columns]
        written.append(_write_lines(out / f"density_n{n:03d}.csv",
                                    [header] + [",".join(row) for row in zip(*cells)]))
    return written


def write_outputs(header: Sequence[str], rows: Sequence[dict], doc: dict,
                  densities: Sequence[SampledDensity], formats: Iterable[str],
                  out_dir: Union[str, Path]) -> list:
    """The one writer of every pipeline; returns the written paths.

    csv: summary.csv (the header, then each row's cells in header order) and
    one density table per state; json: report.json holding doc. Output is
    bit-deterministic for identical inputs: floats are written with 17
    significant digits and non-finite sentinels as null.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    formats = set(formats)
    if "csv" in formats:
        lines = [",".join(header)] + [",".join(_fmt(row[c]) for c in header) for row in rows]
        written.append(_write_lines(out / "summary.csv", lines))
        written.extend(write_density_tables(densities, out))
    if "json" in formats:
        text = json.dumps(_jsonable(doc), sort_keys=True, indent=2)
        written.append(_write_lines(out / "report.json", [text]))
    return written


#: summary.csv columns of the compare pipeline
SUMMARY_HEADER = tuple(f.name for f in fields(StateComparison)) + tuple(
    f.name for f in fields(DensityMetrics) if f.name != "n")


def report_tables(report: ComparisonReport) -> tuple:
    """(summary rows keyed by SUMMARY_HEADER, JSON document) of a report.

    A state without density metrics gets null metric cells.
    """
    per_state = [asdict(r) for r in report.per_state]
    metrics = [asdict(m) for m in report.density_metrics]
    by_n = {m["n"]: m for m in metrics}
    rows = [{**dict.fromkeys(SUMMARY_HEADER), **by_n.get(r["n"], {}), **r} for r in per_state]
    doc = {"config": report.config_echo, "per_state": per_state, "density_metrics": metrics}
    return rows, doc


def export(report: ComparisonReport, densities: Sequence[SampledDensity],
           formats: Iterable[str], out_dir: Union[str, Path]) -> list:
    """Write a comparison report and its densities through `write_outputs`."""
    rows, doc = report_tables(report)
    return write_outputs(SUMMARY_HEADER, rows, doc, densities, formats, out_dir)
