"""Fourier grid Hamiltonian reference solver for arbitrary even kinetic laws.

The Hamiltonian is collocated on N (odd) uniform points; the kinetic operator
is diagonal in the symmetric discrete momentum set p_k = 2*pi*k/(N*dx),
k = -(N-1)/2 .. (N-1)/2, giving the real symmetric matrix

    H_ij = V(x_i) delta_ij + (1/N) * sum_k T(p_k) * cos(p_k (x_i - x_j)).

The kinetic kernel depends only on i - j and is assembled with one real DFT,
then Toeplitz-filled into the lower triangle only, the part LAPACK reads. The
grid is always shifted by less than one spacing so that the potential minimum
sits at the Gauss offset 1/2 - 1/(2*sqrt(3)) inside its cell: for a symmetric
kink at the minimum (such as lam*|x|) this cancels the leading O(dx^2) sampling
error of the corner, restoring fourth-order eigenvalue convergence. A kink with unequal slopes keeps a
third-order error: the energies of V and of its reflection V(-x) differ by
~8 times less per doubling of N. For smooth potentials the shift is
immaterial.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass, replace
from typing import Tuple, Union

import numpy as np
import scipy.linalg
from numpy.lib.stride_tricks import as_strided

from .classical import Provenance, SampledDensity
from .errors import (ConfigError, EigensolverFailure, GridTooSmall, NoStatesRequested,
                     OddGridRequired)
from .kinetics import BoundStateProblem
from .potentials import TurningPoints

#: fractional cell offset of the potential minimum on auto grids
GAUSS_OFFSET = 0.5 - 0.5 / np.sqrt(3.0)
#: box padding beyond the turning points, as a fraction of d
BOX_PADDING = 0.35
#: columns per block of lower_hamiltonian's fill
_BLOCK = 64


@dataclass(frozen=True)
class FghConfig:
    n_points: int = 513
    box: Union[str, Tuple[float, float]] = "auto"
    n_states: int = 16

    def covering(self, ns) -> "FghConfig":
        """This config with n_states raised, if need be, to hold every quantum number in ns.

        An n_states below 1 is kept, for resolve_grid to refuse on every route.
        """
        if self.n_states < 1:
            return self
        return replace(self, n_states=max(self.n_states, max(ns) + 1))


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


def _grid(box: Tuple[float, float], n_points: int, anchor: float) -> np.ndarray:
    """Uniform grid on box, shifted by under half a cell so `anchor` sits at the Gauss offset."""
    x_min, x_max = box
    dx = (x_max - x_min) / n_points
    frac = (anchor - x_min) / dx
    shift = (frac - np.floor(frac) - GAUSS_OFFSET) * dx
    if shift > 0.5 * dx:
        shift -= dx
    return x_min + shift + dx * np.arange(n_points)


def resolve_grid(problem: BoundStateProblem, config: FghConfig) -> np.ndarray:
    if config.n_points % 2 == 0:
        raise OddGridRequired(f"fgh.n_points must be odd, got {config.n_points}")
    if config.n_states < 1:
        raise NoStatesRequested(f"fgh.n_states must be >= 1, got {config.n_states}")
    if config.n_points < 2 * config.n_states + 1:
        raise GridTooSmall(f"fgh.n_points = {config.n_points} is too small for "
                           f"{config.n_states} states: at least "
                           f"{2 * config.n_states + 1} are needed")
    if config.box == "auto":
        box = auto_box(problem, config.n_states)
    else:
        box = tuple(config.box)
        if not -np.inf < box[0] < box[1] < np.inf:
            raise ConfigError(f"fgh.box needs finite x_min < x_max, got {list(box)}")
    return _grid(box, config.n_points, problem.potential.minimum_location)


def kinetic_kernel(problem: BoundStateProblem, n_points: int, dx: float) -> np.ndarray:
    """K(r) = (1/N) sum_k T(p_k) cos(2 pi k r / N) via one real DFT.

    p_k = 2 pi hbar k / (N dx); the hbar factor reduces to 1 in natural units.
    A T(p_k) that is not finite raises EigensolverFailure before the DFT.
    """
    N = n_points
    M = (N - 1) // 2
    p = 2.0 * np.pi * problem.hbar * np.arange(-M, M + 1) / (N * dx)
    T = np.asarray(problem.kinetic.eval(p), dtype=float)
    if not np.isfinite(T).all():
        raise EigensolverFailure(f"the kinetic kernel needs a finite T(p): T is not finite "
                                 f"at grid p = {p[~np.isfinite(T)][0]:.6g}")
    c = np.empty(N)
    c[0] = T[M]
    c[1:M + 1] = T[M + 1:]
    c[N - M:] = T[M + 1:][::-1]
    return np.fft.fft(c).real / N


def lower_hamiltonian(problem: BoundStateProblem, grid: np.ndarray) -> np.ndarray:
    """Lower triangle of H = toeplitz(K) + diag(V), Fortran-ordered, as LAPACK reads it.

    The strict upper triangle is never written: it reads 0, and its pages are
    never committed, because the matrix lives in an anonymous mmap, whose
    pages become resident on first write, rather than in numpy's allocator,
    which asks for 2 MB transparent huge pages, each holding some of the lower
    triangle. With 4 KB pages for shared anonymous memory (shmem huge pages
    off) about 4 N^2 + PAGESIZE * N of its 8 N^2 bytes become resident.
    Finiteness is checked in O(N) on the inputs: a non-finite K, then a
    non-finite K[0] + V(x_i), raises EigensolverFailure.
    """
    N = len(grid)
    K = kinetic_kernel(problem, N, grid[1] - grid[0])
    if not np.isfinite(K).all():
        raise EigensolverFailure("Hamiltonian is not finite: the kinetic kernel K is not "
                                 "finite (a finite T(p) overflowed its DFT)")
    diagonal = K[0] + np.asarray(problem.potential.eval(grid), dtype=float)
    bad = ~np.isfinite(diagonal)
    if bad.any():
        raise EigensolverFailure(f"Hamiltonian is not finite: V(x) is not finite at grid "
                                 f"x = {grid[np.argmax(bad)]:.6g}")
    flat = np.frombuffer(mmap.mmap(-1, 8 * N * N), dtype=float)
    L = flat.reshape((N, N), order="F")
    # columns j0 <= j < j1: rows i >= j1 hold K[i - j], a Toeplitz rectangle read
    # backwards along K; rows j0 <= i < j1 a small triangle, written element-wise
    s = K.strides[0]
    rows, cols = np.tril_indices(_BLOCK)
    for j0 in range(0, N, _BLOCK):
        width = min(_BLOCK, N - j0)
        j1 = j0 + width
        L[j1:, j0:j1] = as_strided(K[width:], shape=(N - j1, width), strides=(s, -s))
        inside = rows < width
        r, c = rows[inside], cols[inside]
        L[j0 + r, j0 + c] = K[r - c]
    flat[::N + 1] = diagonal
    return L


def build_hamiltonian(problem: BoundStateProblem, grid: np.ndarray) -> np.ndarray:
    """Dense real symmetric N x N Hamiltonian on a uniform grid (see resolve_grid)."""
    L = lower_hamiltonian(problem, grid)
    return np.tril(L) + np.tril(L, -1).T


def solve(problem: BoundStateProblem, config: FghConfig) -> Spectrum:
    """Lowest n_states eigenpairs of the grid Hamiltonian.

    Only those eigenpairs are computed (resolve_grid guarantees N > n_states),
    by LAPACK in place on the lower triangle from lower_hamiltonian, the only
    part it reads, committed page by page as it is written: on 4 KB pages with
    shmem huge pages off, about 4 N^2 + PAGESIZE * N bytes of H are resident,
    not 8 N^2 (at N = 2049 a solve's peak RSS grows by 25 MiB, not 34; at
    N = 513 a column is about a page and nothing is saved). A non-finite H
    raises EigensolverFailure naming the kinetic kernel or the first grid x
    where V is not finite.
    Eigenvectors are normalized to dx * sum(psi_i^2) = 1 (unit integral over
    the whole grid) with the first non-negligible component positive.
    """
    grid = resolve_grid(problem, config)
    dx = grid[1] - grid[0]
    L = lower_hamiltonian(problem, grid)
    try:
        energies, vectors = scipy.linalg.eigh(L, lower=True,
                                              subset_by_index=[0, config.n_states - 1],
                                              overwrite_a=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
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
        n=n,
    )
