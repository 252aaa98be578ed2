"""Fourier grid Hamiltonian reference solver for arbitrary even kinetic laws.

The Hamiltonian is collocated on N (odd) uniform points; the kinetic operator
is diagonal in the symmetric discrete momentum set p_k = 2*pi*k/(N*dx),
k = -(N-1)/2 .. (N-1)/2, giving the real symmetric matrix

    H_ij = V(x_i) delta_ij + (1/N) * sum_k T(p_k) * cos(p_k (x_i - x_j)).

The kinetic kernel depends only on i - j and is assembled with one real DFT,
then Toeplitz-filled. The grid is always shifted by less than one spacing so
that the potential minimum sits at the Gauss offset 1/2 - 1/(2*sqrt(3))
inside its cell: for potentials with a kink at the minimum (such as lam*|x|)
this cancels the leading O(dx^2) sampling error of the corner, restoring
fourth-order eigenvalue convergence; for smooth potentials the shift is
immaterial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np
import scipy.linalg

from .classical import Provenance, SampledDensity
from .errors import (ConfigError, EigensolverFailure, GridTooSmall, NoStatesRequested,
                     OddGridRequired)
from .kinetics import BoundStateProblem
from .potentials import TurningPoints

#: fractional cell offset of the potential minimum on auto grids
GAUSS_OFFSET = 0.5 - 0.5 / np.sqrt(3.0)
#: box padding beyond the turning points, as a fraction of d
BOX_PADDING = 0.35


@dataclass(frozen=True)
class FghConfig:
    n_points: int = 513
    box: Union[str, Tuple[float, float]] = "auto"
    n_states: int = 16


@dataclass(frozen=True)
class FghState:
    n: int
    energy: float
    wavefunction: np.ndarray


@dataclass(frozen=True)
class Spectrum:
    """Ordered eigenpairs on a grid; wavefunctions satisfy dx * sum psi^2 = 1."""

    states: tuple
    grid: np.ndarray

    @property
    def energies(self) -> np.ndarray:
        return np.array([s.energy for s in self.states])


def padded_box(tps: TurningPoints) -> Tuple[float, float]:
    """Box reaching BOX_PADDING * d beyond both turning points."""
    return (tps.a - BOX_PADDING * tps.d, tps.b + BOX_PADDING * tps.d)


def auto_box(problem: BoundStateProblem, n_states: int) -> Tuple[float, float]:
    """Box from the turning points of the highest requested WKBJ state."""
    from .wkbj import quantize

    return padded_box(quantize(problem, n_states - 1).turning_points)


def _grid(box: Tuple[float, float], n_points: int,
          anchor: Optional[float] = None) -> np.ndarray:
    """Uniform grid x_i = x_min + i*dx; `anchor` lands at the Gauss offset."""
    x_min, x_max = box
    dx = (x_max - x_min) / n_points
    if anchor is not None:
        frac = (anchor - x_min) / dx
        shift = (frac - np.floor(frac) - GAUSS_OFFSET) * dx
        if shift > 0.5 * dx:
            shift -= dx
        x_min = x_min + shift
    return x_min + dx * np.arange(n_points)


def resolve_grid(problem: BoundStateProblem, config: FghConfig) -> np.ndarray:
    if config.n_points % 2 == 0:
        raise OddGridRequired(f"fgh.n_points must be odd, got {config.n_points}")
    if config.n_states < 1:
        raise NoStatesRequested(f"fgh.n_states must be >= 1, got {config.n_states}")
    if config.n_points < 2 * config.n_states + 1:
        raise GridTooSmall(f"fgh.n_points = {config.n_points} is too small for "
                           f"{config.n_states} states: at least "
                           f"{2 * config.n_states + 1} are needed")
    if config.box == "auto" or config.box is None:
        box = auto_box(problem, config.n_states)
    else:
        box = tuple(config.box)
        if not -np.inf < box[0] < box[1] < np.inf:
            raise ConfigError(f"fgh.box needs finite x_min < x_max, got {list(box)}")
    return _grid(box, config.n_points, anchor=problem.potential.minimum_location)


def kinetic_kernel(problem: BoundStateProblem, n_points: int, dx: float) -> np.ndarray:
    """K(r) = (1/N) sum_k T(p_k) cos(2 pi k r / N) via one real DFT.

    p_k = 2 pi hbar k / (N dx); the hbar factor reduces to 1 in natural units.
    """
    N = n_points
    M = (N - 1) // 2
    p = 2.0 * np.pi * problem.hbar * np.arange(-M, M + 1) / (N * dx)
    T = np.asarray(problem.kinetic.eval(p), dtype=float)
    c = np.empty(N)
    c[0] = T[M]
    c[1:M + 1] = T[M + 1:]
    c[N - M:] = T[M + 1:][::-1]
    return np.fft.fft(c).real / N


def build_hamiltonian(problem: BoundStateProblem, config: FghConfig,
                      grid: Optional[np.ndarray] = None) -> np.ndarray:
    """Dense real symmetric N x N Hamiltonian on the configured grid."""
    if grid is None:
        grid = resolve_grid(problem, config)
    dx = grid[1] - grid[0]
    K = kinetic_kernel(problem, len(grid), dx)
    H = scipy.linalg.toeplitz(K)
    H[np.diag_indices_from(H)] += np.asarray(problem.potential.eval(grid), dtype=float)
    return H


def solve(problem: BoundStateProblem, config: FghConfig) -> Spectrum:
    """Lowest n_states eigenpairs of the grid Hamiltonian.

    Eigenvectors are normalized to dx * sum(psi_i^2) = 1 (unit integral over
    the whole grid) with the first non-negligible component positive.
    """
    grid = resolve_grid(problem, config)
    dx = grid[1] - grid[0]
    H = build_hamiltonian(problem, config, grid)
    try:
        energies, vectors = scipy.linalg.eigh(H)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - rare LAPACK failure
        raise EigensolverFailure(f"dense eigensolver failed: {exc}") from exc

    states = []
    for n in range(config.n_states):
        psi = vectors[:, n] / np.sqrt(dx)
        big = np.abs(psi) > 1e-6 * np.abs(psi).max()
        if psi[np.argmax(big)] < 0:
            psi = -psi
        states.append(FghState(n=n, energy=float(energies[n]), wavefunction=psi))
    return Spectrum(states=tuple(states), grid=grid)


def fgh_density(spectrum: Spectrum, n: int) -> SampledDensity:
    """rho_n = psi_n^2 on the grid, normalized to unity over the whole box."""
    if not 0 <= n < len(spectrum.states):
        raise IndexError(f"state {n} not in spectrum of {len(spectrum.states)} states")
    psi = spectrum.states[n].wavefunction
    return SampledDensity(
        grid=spectrum.grid,
        values=psi * psi,
        support=None,
        provenance=Provenance.FGH,
        normalization_domain=(float(spectrum.grid[0]), float(spectrum.grid[-1])),
        n=n,
    )
