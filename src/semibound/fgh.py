"""Fourier grid Hamiltonian reference solver for arbitrary even kinetic laws.

The Hamiltonian is collocated on N (odd) uniform points; the kinetic operator
is diagonal in the symmetric discrete momentum set p_k = 2*pi*k/(N*dx),
k = -(N-1)/2 .. (N-1)/2, giving the real symmetric matrix

    H_ij = V(x_i) delta_ij + K(i - j),  K(r) = (1/N) sum_k T(p_k) cos(2 pi k r / N),

with K from one real DFT.

A well that declares its form at the minimum x0 (PotentialLaw.local_form),
V(x0 + s) - V(x0) ~ c_R s^q for s > 0 and c_L |s|^q for s < 0, has a grid
point on x0. The grid sums that H stands for then err as the generalized
Euler-Maclaurin formula for a |s|^q singularity says (Navot, J. Math. Phys.
40, 271 (1961)): with h = dx, g the smooth rest of the integrand and
cbar = (c_L + c_R) / 2, by

    2 zeta(-q) cbar h^q g(0) h + zeta(-q-1) (c_R - c_L) h^q g'(0) h^2
        + zeta(-q-2) cbar h^q g''(0) h^3 + ...

Three local edits of the diagonal cancel these three terms: with
beta = -zeta(-q-2) cbar h^q and tilt = zeta(-q-1) (c_R - c_L) h^q / 2,
V at x0 gains -2 zeta(-q) cbar h^q - 2 beta, V at x0 - h gains beta + tilt
and V at x0 + h gains beta - tilt. For q = 1 that is cbar h/6 + cbar h/60 at
x0 and -cbar h/120 at each neighbour (zeta(-2) = 0); at even q (a smooth
minimum) every edit is exactly 0. A well that declares no form gets no
edit; its grid puts x0 at the Gauss offset 1/2 - 1/(2 sqrt 3) inside a cell
instead, which cancels the O(h^2) corner error of a kink with equal slopes
but not the third-order one of unequal slopes.

When the diagonal is mirror-equal about the grid's centre point (a
symmetric declared well on a box centred on x0), H splits into an even
block of size M + 1 = (N + 1)/2 and an odd block of size M, with i, j >= 0
counting grid points out from the centre:

    H+_ij = K(i - j) + K(i + j) + V_i   (row and column 0 of the K part scaled by 1/sqrt 2),
    H-_ij = K(i - j) - K(i + j) + V_i   (i, j >= 1),

each solved for its lowest states at about a quarter of the cost of the
full matrix. Any other H is one block of size N.

Each block is diagonalized in place by LAPACK's dsyevr, in the OpenBLAS numpy
bundles, through ctypes, for its lowest eigenpairs only. Where numpy bundles none,
np.linalg.eigh finds every eigenpair of a copy and the lowest are kept (see
_lapack). Both parity blocks share one (M+1) x (M+1) array, the odd block in the
strict triangle the even one leaves free; on numpy's OpenBLAS, set to one BLAS
thread, the two are solved at the same time (see _eigenpairs).
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import threading
from dataclasses import dataclass, replace
from typing import Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .classical import Provenance, SampledDensity
from .errors import (ConfigError, EigensolverFailure, GridTooSmall, NoStatesRequested,
                     OddGridRequired)
from .kinetics import BoundStateProblem
from .potentials import LocalForm, TurningPoints

#: box padding beyond the turning points, as a fraction of d
BOX_PADDING = 0.35
#: fractional cell offset of the minimum of a well that declares no local form
GAUSS_OFFSET = 0.5 - 0.5 / np.sqrt(3.0)
#: B_2k / (2k)! for k = 1 .. 6: the Euler-Maclaurin tail of zeta(s)
_TAIL = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160, -691 / 1307674368000)


@dataclass(frozen=True)
class FghConfig:
    n_points: int = 513
    box: Union[str, Tuple[float, float]] = "auto"
    n_states: int = 16

    def covering(self, ns) -> "FghConfig":
        """This config with n_states raised, if need be, to hold every quantum number in ns.

        An n_states below 1 is kept, for resolve_grid to refuse on every route.
        An empty ns is a ValueError.
        """
        top = max(ns, default=None)
        if top is None:
            raise ValueError("at least one state is needed, got an empty list of quantum numbers")
        return self if self.n_states < 1 else replace(self, n_states=max(self.n_states, top + 1))


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


def _grid(box: Tuple[float, float], n_points: int, anchor: float, offset: float) -> np.ndarray:
    """n_points on the lattice anchor + dx * (j - offset), j integer, dx = (x_max - x_min) / n_points.

    They are the lattice points nearest the box's cell midpoints, so a box
    centred on anchor gives anchor + dx * (-M - offset .. M - offset),
    M = (n_points - 1) / 2.
    """
    x_min, x_max = box
    dx = (x_max - x_min) / n_points
    k = round((anchor - x_min) / dx - offset - 0.5)
    return anchor + dx * (np.arange(-k, n_points - k) - offset)


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
        if not (-np.inf < box[0] < box[1] < np.inf
                and math.isfinite(float(box[1]) - float(box[0]))):
            raise ConfigError(f"fgh.box needs finite x_min < x_max with a finite width "
                              f"x_max - x_min, got {list(box)}")
    offset = 0.0 if problem.potential.local_form is not None else GAUSS_OFFSET
    return _grid(box, config.n_points, problem.potential.minimum_location, offset)


def kinetic_kernel(problem: BoundStateProblem, n_points: int, dx: float) -> np.ndarray:
    """K(r) = (1/N) sum_k T(p_k) cos(2 pi k r / N) via one real DFT.

    p_k = 2 pi hbar k / (N dx); the hbar factor reduces to 1 in natural units.
    T is even and N odd, so T is evaluated at k = 0 .. (N-1)/2 only and
    mirrored. A T(p_k) that is not finite raises EigensolverFailure before the DFT.
    """
    N = n_points
    M = (N - 1) // 2
    p = 2.0 * np.pi * problem.hbar * np.arange(M + 1) / (N * dx)
    # a T that overflows at the grid's momenta (a very narrow box) is refused here, and a
    # finite T whose DFT overflows by the caller's finiteness check, without warnings
    with np.errstate(over="ignore", invalid="ignore"):
        T = np.asarray(problem.kinetic.eval(p), dtype=float)
        if not np.isfinite(T).all():
            raise EigensolverFailure(f"the kinetic kernel needs a finite T(p): T is not finite "
                                     f"at grid p = {p[~np.isfinite(T)][0]:.6g}")
        return np.fft.fft(np.concatenate((T, T[:0:-1]))).real / N


def _zeta_negative(q: float) -> float:
    """zeta(-q) for q > 0, exactly 0.0 at even q.

    By the reflection formula, zeta(-q) = -2 (2 pi)^-(1+q) sin(pi q / 2) Gamma(1+q) zeta(1+q),
    with zeta(1 + q) summed to 9 terms and a six-term Euler-Maclaurin tail.
    Gamma(1+q) overflows, as an OverflowError, beyond q = 170.
    """
    if q % 2 == 0:
        return 0.0
    s, n = 1.0 + q, 10
    zeta = sum(j ** -s for j in range(1, n)) + n ** (1.0 - s) / (s - 1.0) + 0.5 * n ** -s
    rising = s * n ** (-s - 1.0)  # s (s+1) .. (s+2k-2) n^(1-s-2k), here at k = 1
    for k, coeff in enumerate(_TAIL, start=1):
        zeta += coeff * rising
        rising *= (s + 2 * k - 1) * (s + 2 * k) / (n * n)
    return -2.0 * math.sin(0.5 * math.pi * q) * math.gamma(s) * (2.0 * math.pi) ** -s * zeta


def _kink_correction(form: LocalForm, dx: float) -> Tuple[float, float, float]:
    """The diagonal edits at the minimum's left neighbour, the minimum and its right neighbour.

    They cancel the kink's error terms in h^(q+1), h^(q+2) and h^(q+3) (see
    the module docstring). An exponent whose zeta(-q - 2) overflows raises
    EigensolverFailure.
    """
    try:
        zetas = [_zeta_negative(form.q + k) for k in range(3)]
    except OverflowError as exc:
        raise EigensolverFailure(f"the kink correction overflows at exponent "
                                 f"q = {form.q:.6g}") from exc
    size = dx ** form.q
    c_bar = 0.5 * (form.left + form.right)
    beta = -c_bar * zetas[2] * size
    tilt = 0.5 * (form.right - form.left) * zetas[1] * size
    return beta + tilt, -2.0 * c_bar * zetas[0] * size - 2.0 * beta, beta - tilt


def _kernel_and_potential(problem: BoundStateProblem,
                          grid: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """K(0 .. N-1) and the diagonal potential, kink-corrected where the well declares its form.

    Finiteness is checked in O(N): a non-finite K, then a non-finite
    K[0] + V_i, raises EigensolverFailure.
    """
    N = len(grid)
    dx = grid[1] - grid[0]
    K = kinetic_kernel(problem, N, dx)
    if not np.isfinite(K).all():
        raise EigensolverFailure("Hamiltonian is not finite: the kinetic kernel K is not "
                                 "finite (a finite T(p) overflowed its DFT)")
    V = np.array(problem.potential.eval(grid), dtype=float)
    form = problem.potential.local_form
    if form is not None:
        k = round((problem.potential.minimum_location - grid[0]) / dx)
        for i, edit in zip((k - 1, k, k + 1), _kink_correction(form, dx)):
            if 0 <= i < N:
                V[i] += edit
    bad = ~np.isfinite(K[0] + V)
    if bad.any():
        raise EigensolverFailure(f"Hamiltonian is not finite: V(x) is not finite at grid "
                                 f"x = {grid[np.argmax(bad)]:.6g}")
    return K, V


def _block(K: np.ndarray, V: np.ndarray, parity: int) -> np.ndarray:
    """One symmetric block of H, of size len(V), in a single allocation.

    parity 0: K(i - j) + V_i, the whole of H. parity +1 / -1: the even / odd
    block K(i - j) +- K(i + j) + V_i, i, j counting grid points out from the
    minimum from 0 / from 1, with row and column 0 of the even block's K part
    scaled by 1/sqrt 2. The Toeplitz and Hankel parts are strided views of K,
    added in place.
    """
    n, N = len(V), len(K)
    mirrored = np.concatenate((K[:0:-1], K))  # K(|r|) at N - 1 + r
    s = mirrored.strides[0]
    B = np.empty((n, n))
    np.copyto(B, as_strided(mirrored[N - 1:], shape=(n, n), strides=(s, -s)))
    if parity:
        s = K.strides[0]
        hankel = as_strided(K[0 if parity > 0 else 2:], shape=(n, n), strides=(s, s))
        (np.add if parity > 0 else np.subtract)(B, hankel, out=B)
    if parity > 0:
        B[0] *= math.sqrt(0.5)
        B[:, 0] *= math.sqrt(0.5)
    B.flat[::n + 1] += V
    return B


def _parity_blocks(K: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Both parity blocks of a split H (N = len(V) = 2M + 1) in one (M+1) x (M+1) array Y.

    The even block is Y's upper triangle, as _block(K, V[M:], 1) fills it.
    The odd block _block(K, V[M+1:], -1) fills the strict lower triangle, its
    (i, j) entry, i >= j, at Y[i + 1, j], one row at a time from views of K,
    so no temporary the size of a block is made.
    """
    M = len(V) // 2
    Y = _block(K, V[M:], 1)
    for i in range(M):
        np.subtract(K[i::-1], K[i + 2:2 * i + 3], out=Y[i + 1, :i + 1])
    Y.flat[M + 1::M + 2] += V[M + 1:]
    return Y


def build_hamiltonian(problem: BoundStateProblem, grid: np.ndarray) -> np.ndarray:
    """Dense real symmetric N x N Hamiltonian on a grid from resolve_grid, kink-corrected."""
    return _block(*_kernel_and_potential(problem, grid), 0)


def _numpy_openblas():
    """numpy's ILP64 OpenBLAS, libscipy_openblas64_* in numpy.libs/ or numpy/.dylibs/, or None."""
    root = os.path.dirname(np.__file__)
    places = [p for p in (root + ".libs", os.path.join(root, ".dylibs")) if os.path.isdir(p)]
    return next((os.path.join(place, name) for place in places for name in sorted(os.listdir(place))
                 if name.startswith("libscipy_openblas64_")), None)


def _openblas_dsyevr(routine):
    """dsyevr(A, count, lower) on the ctypes function scipy_dsyevr_64_ of an ILP64 OpenBLAS."""
    # 3 flags, 18 pointers, and the flags' 3 lengths, which gfortran passes by value
    routine.argtypes = [ctypes.c_char_p] * 3 + [ctypes.c_void_p] * 18 + [ctypes.c_size_t] * 3
    routine.restype = None
    i64, ref, zero = ctypes.c_int64, ctypes.byref, ctypes.c_double(0.0)

    def dsyevr(A, count, lower):
        n, lda = ref(i64(len(A))), ref(i64(A.strides[1] // A.itemsize))
        m, info, lwork, liwork = i64(), i64(), i64(-1), i64(-1)
        w, z = np.empty(len(A)), np.empty((count, len(A)))  # z: len(A) x count in Fortran order
        isuppz, work, iwork = np.empty(2 * len(A), np.int64), np.empty(1), np.empty(1, np.int64)
        for _ in range(2):  # LAPACK's workspace query, then the solve in place on A
            routine(b"V", b"I", b"L" if lower else b"U", n, A.ctypes, lda, ref(zero), ref(zero),
                    ref(i64(1)), ref(i64(count)), ref(zero), ref(m), w.ctypes, z.ctypes, n,
                    isuppz.ctypes, work.ctypes, ref(lwork), iwork.ctypes, ref(liwork), ref(info),
                    1, 1, 1)
            if info.value != 0 or lwork.value != -1:
                break
            lwork.value, liwork.value = int(work[0]), int(iwork[0])
            work, iwork = np.empty(lwork.value), np.empty(liwork.value, np.int64)
        return w[:m.value], z[:m.value].T, info.value

    return dsyevr


def _eigh_dsyevr(A, count, lower):
    """dsyevr(A, count, lower) on np.linalg.eigh, which finds every pair; a LinAlgError is info = 1."""
    try:
        w, v = np.linalg.eigh(A, UPLO="L" if lower else "U")
    except np.linalg.LinAlgError:
        return None, None, 1
    return w[:count], v[:, :count], 0


@functools.cache
def _lapack():
    """(dsyevr, one_blas_thread): LAPACK's dsyevr, and a context that runs it at one BLAS thread.

    dsyevr(A, count, lower) -> (w, v, info) finds A's lowest count eigenpairs,
    reading its lower (UPLO = 'L') or upper ('U') triangle. A is the matrix as
    LAPACK reads it: a Fortran-ordered view, unit stride down a column, whose
    column stride is the leading dimension. The routine is the one in the
    OpenBLAS numpy bundles and has loaded, called through ctypes, which frees
    the GIL: JOBZ = 'V', RANGE = 'I', in place on A, with the workspace of
    LAPACK's own query. one_blas_thread() sets that library's thread count,
    process-wide, to 1; of overlapping entries, counted under a lock, the first
    saves the caller's count and the last restores it. Where numpy bundles none,
    dsyevr is _eigh_dsyevr, on a copy of A, and one_blas_thread is None: the
    threads of np.linalg.eigh's BLAS are not ours to set.
    """
    path = _numpy_openblas()
    library = ctypes.CDLL(path) if path else None
    routine = getattr(library, "scipy_dsyevr_64_", None)
    if routine is None:
        return _eigh_dsyevr, None
    lock, pinned, count = threading.Lock(), 0, 1
    @contextlib.contextmanager
    def one_blas_thread():
        nonlocal pinned, count
        with lock:
            if not pinned:
                count = library.scipy_openblas_get_num_threads64_()
                library.scipy_openblas_set_num_threads64_(1)
            pinned += 1
        try:
            yield
        finally:
            with lock:
                pinned -= 1
                if not pinned:
                    library.scipy_openblas_set_num_threads64_(count)

    return _openblas_dsyevr(routine), one_blas_thread


def _lowest(B: np.ndarray, parity: int, count: int):
    """Lowest `count` eigenpairs of one block of H held in B, by _lapack's dsyevr.

    Parity 0 or +1: the block in B's upper triangle (all of a _block, or the
    even block of _parity_blocks), read as the lower triangle of B.T. Parity -1:
    the odd block of _parity_blocks, read as the upper triangle of B[1:, :-1].T,
    one column into B.T with leading dimension M + 1. The two calls on one
    _parity_blocks array touch disjoint triangles. On numpy's OpenBLAS the call
    is the one scipy.linalg.eigh(block, lower=parity >= 0, subset_by_index=[0,
    count - 1], overwrite_a=True) makes, with the same workspace: the eigenpairs
    carry eigh's bits at one BLAS thread, and at more where both OpenBLAS builds
    split the work alike. An info != 0 from LAPACK raises EigensolverFailure.
    """
    w, v, info = _lapack()[0](B[1:, :-1].T if parity < 0 else B.T, count, parity >= 0)
    if info != 0:
        raise EigensolverFailure(f"dense eigensolver failed: LAPACK returned info = {info}")
    return w, v


def _both_lowest(Y: np.ndarray, counts: dict) -> dict:
    """{+1: even pairs, -1: odd pairs}: the lowest counts[p] eigenpairs of each block packed in Y.

    On numpy's OpenBLAS, whose ctypes call frees the GIL, a worker thread solves
    the odd block while the caller solves the even one; the eigh fallback
    solves them in turn. The worker calls private functions only, so a tracer
    that wraps the public ones sees one thread. Any error in it, an info != 0
    included, is raised here as EigensolverFailure once both solves have ended.
    """
    if _lapack()[1] is None:
        return {p: _lowest(Y, p, count) for p, count in counts.items()}
    odd = []

    def solve_odd():
        try:
            odd.append(_lowest(Y, -1, counts[-1]))
        except Exception as exc:  # raised in the caller, not left to threading.excepthook
            odd.append(exc)

    worker = threading.Thread(target=solve_odd)
    worker.start()
    try:
        even = _lowest(Y, 1, counts[1])
    finally:
        worker.join()
    if isinstance(odd[0], EigensolverFailure):
        raise odd[0]
    if isinstance(odd[0], Exception):
        raise EigensolverFailure(f"dense eigensolver failed on the odd block: {odd[0]!r}") from odd[0]
    return {1: even, -1: odd[0]}


def _unfold(vectors: np.ndarray, parity: int) -> np.ndarray:
    """Eigenvectors (columns) of the parity +1 or -1 block on the whole grid.

    Even u: u_j/sqrt 2 at -j and +j, u_0 at the centre. Odd v: -v_j/sqrt 2 at
    -j, v_j/sqrt 2 at +j, 0 at the centre.
    """
    half = math.sqrt(0.5) * (vectors[1:] if parity > 0 else vectors)
    M = len(half)
    psi = np.empty((2 * M + 1, vectors.shape[1]))
    psi[M + 1:] = half
    psi[M - 1::-1] = parity * half
    psi[M] = vectors[0] if parity > 0 else 0.0
    return psi


def _eigenpairs(problem: BoundStateProblem, grid: np.ndarray, n_states: int):
    """Lowest n_states eigenvalues of H on grid, ascending, and their unit eigenvectors as columns.

    An H whose diagonal is mirror-equal about the centre point is solved as its even
    and odd blocks, both held in one array (_parity_blocks) and solved by
    _both_lowest, each first for (n_states + 1) // 2 + 1 states. A block all of
    whose states land among the lowest n_states of the merge may hold more below
    them, so the array is built again and that block solved again for n_states: the
    merge is then that of the full matrix, whatever the order of the parities. On
    numpy's OpenBLAS these solves run at one BLAS thread, so their bits do not
    follow the host's count; any other H is one block, at that count.
    """
    K, V = _kernel_and_potential(problem, grid)
    M = len(grid) // 2
    if not np.array_equal(V[M + 1:], V[M - 1::-1]):
        return _lowest(_block(K, V, 0), 0, n_states)
    sizes = {1: M + 1, -1: M}
    with (_lapack()[1] or contextlib.nullcontext)():
        found = _both_lowest(_parity_blocks(K, V),
                             {p: min((n_states + 1) // 2 + 1, n) for p, n in sizes.items()})
        energies = np.concatenate([found[p][0] for p in sizes])
        owner = np.repeat(list(sizes), [len(found[p][0]) for p in sizes])
        owner = owner[np.argsort(energies, kind="stable")[:n_states]]
        # a block solved in full needs no second solve; otherwise the first solves hold
        # n_states + 2 states or more, so at most one block can have every state among
        # the lowest n_states; the other has left one of its states out, and its
        # unsolved states lie above that one
        for p, n in sizes.items():
            if len(found[p][0]) == np.count_nonzero(owner == p) < min(n_states, n):
                found[p] = _lowest(_parity_blocks(K, V), p, min(n_states, n))
    energies = np.concatenate([found[p][0] for p in sizes])
    order = np.argsort(energies, kind="stable")[:n_states]
    vectors = np.hstack([_unfold(found[p][1], p) for p in sizes])
    return energies[order], vectors[:, order]


def solve(problem: BoundStateProblem, config: FghConfig) -> Spectrum:
    """Lowest n_states eigenpairs of the grid Hamiltonian.

    Each block of H is solved in place by LAPACK's dsyevr for those eigenpairs only
    (resolve_grid guarantees N > n_states), or for every pair by np.linalg.eigh
    where numpy bundles no OpenBLAS (see _lapack); a split well holds both blocks in
    one array the size of the even block, solved at one BLAS thread on numpy's
    OpenBLAS (see _eigenpairs). A non-finite H raises EigensolverFailure naming the
    kinetic kernel or the first grid x where V is not finite.
    Eigenvectors are scaled and signed as one table: divided by sqrt(dx), so
    dx * sum(psi_i^2) = 1, and negated where their first component above 1e-6
    of their largest magnitude is negative; state n's wavefunction is row n.
    """
    grid = resolve_grid(problem, config)
    energies, vectors = _eigenpairs(problem, grid, config.n_states)
    psi = np.divide(vectors.T, np.sqrt(grid[1] - grid[0]), order="C")  # one row per state
    big = np.abs(psi) > 1e-6 * np.abs(psi).max(axis=1, keepdims=True)
    psi *= np.sign(np.take_along_axis(psi, np.argmax(big, axis=1, keepdims=True), axis=1))
    return Spectrum(states=tuple(FghState(n=n, energy=float(e), wavefunction=row)
                                 for n, (e, row) in enumerate(zip(energies, psi))), grid=grid)


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
