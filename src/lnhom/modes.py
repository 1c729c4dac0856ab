"""Finite-difference mode solving on waveguide cross-sections.

The solver treats the dominant transverse field component semi-vectorially:
the scalar Helmholtz equation

    (d2/dx2 + d2/dy2) f + k0^2 n^2(x, y) f = beta^2 f

is discretised with the standard 5-point stencil on the square cells (one
pitch h for x and y) of an :class:`~lnhom.geometry.IndexMap` and solved as a
symmetric eigenproblem by shift-invert ARPACK.  The shift sits just above
the largest effective index of any single grid column, an upper bound on
every mode because d2/dx2 is negative semi-definite.  Every map is solved
on half its width: it must be mirror-symmetric about an odd centre column,
and its right half is solved twice, with a reflecting centre for symmetric
modes and a zero-field centre for antisymmetric ones, so the boundary
condition fixes the parity (once, symmetric, when only the fundamental mode
is asked for).  Each half is asked for the number of modes wanted, no
more.  Outer boundaries are zero-field: guided modes decay into the padding.

The cross-section is a stack of full-width layers, and only the etched rib
rows change across x, so each half is solved layer by layer.  Its 1D x
second difference is T_x = V Lambda V^T.  With every grid row moved to the
basis V, the operator is block tridiagonal along y with off-diagonal blocks
I / h^2, and the diagonal block of a row whose index does not change across
x is the diagonal Lambda - 2 / h^2 + k0^2 n(y)^2, as in the fast direct
solvers of separable problems (Buzbee, Golub & Nielson, SIAM J. Numer.
Anal. 7, 627 (1970)).  Only the band of rows from the first to the last
x-varying one gets dense blocks, V^T diag(k0^2 n^2) V + ....  One
factorisation of (operator - shift) per half eliminates the uniform rows
from both ends toward the band, where the pivots stay vectors given by the
continued fractions p_y = d_y - h^-4 / p_(y -+ 1) of the row diagonals d_y,
then runs a block LDL^T over the band.  ARPACK iterates on the rows'
coefficients in V, so a shift-invert solve is a forward and a back sweep,
and V only maps the start vector in and the eigenvectors out.  For N
columns in the half the factorisation costs band rows x N^3 time and band
rows x N^2 x 8 B of memory, about 17 MB for a coupler at 10 nm pitch; a
build_cross_section map has etch_depth / pitch band rows.

Counting guided modes needs no eigensolve.  By Sylvester's law of inertia
(Parlett, The Symmetric Eigenvalue Problem, 1980, sec. 3.3) the number of
eigenvalues of the operator above tau equals the number of positive pivots
of an LDL^T factorisation of (operator - tau I), so the same sweep shifted
to tau counts every mode above the cutoff exactly, with no cap: the
positive entries of its vector pivots plus the positive eigenvalues of its
dense ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dsytrf, dsytrf_lwork, dsytri
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .errors import (ConvergenceError, DecoupledWaveguidesError,
                     InvalidGeometryError)
from .geometry import DEFAULT_GRID_PITCH_NM, build_cross_section

PARITY_SYMMETRIC = "symmetric"
PARITY_ANTISYMMETRIC = "antisymmetric"

# effective-index gap between the column bound and the shift
SHIFT_MARGIN = 1e-3
# most modes a solve may ask for: a sub-micron LN rib or rib pair guides a
# handful, and scipy's ARPACK holds max(2k + 1, 20) half-size Lanczos
# vectors, so 32 keeps them to 65, near 105 MB on a 200k-unknown half
MAX_MODES = 32
# ARPACK iteration cap and relative eigenvalue accuracy
MAX_ITERATIONS = 10_000
EIGEN_TOLERANCE = 1e-10
# supermode index splitting below which two ribs count as decoupled
DEGENERACY_TOLERANCE = 1e-9
# effective-index margin a rib mode needs above the slab cutoff
CUTOFF_MARGIN = 1e-3


@dataclass
class ModeSolution:
    """One guided mode: effective index plus the dominant field component,
    normalised to unit power on the grid."""

    n_eff: float
    field: np.ndarray  # [iy, ix], same grid as the source IndexMap
    parity: str


def _unusable_pivot(at):
    return ConvergenceError(f"inertia count at {at!r}: zero or non-finite "
                            "pivot")


def _chain_inverse_pivots(diagonals, coupling, at):
    """Reciprocal pivots of rows with diagonal blocks ``diagonals``, each
    coupled to the next by ``coupling`` I, eliminated in order: the
    continued fractions p_y = d_y - coupling^2 / p_(y - 1)."""
    inverse = np.empty_like(diagonals)
    for y, row in enumerate(diagonals):
        pivot = row - coupling**2 * inverse[y - 1] if y else row
        if not np.all(np.isfinite(pivot) & (pivot != 0.0)):
            raise _unusable_pivot(at)
        inverse[y] = 1.0 / pivot
    return inverse


def _dense_pivot(block, at):
    """Inverse of the symmetric pivot ``block`` and its number of positive
    eigenvalues, from its Bunch-Kaufman factorisation P L D L^T P^T: those
    of D by Sylvester, one for each positive 1 x 1 pivot and one for each
    2 x 2 pivot, whose determinant Bunch-Kaufman keeps negative (Bunch &
    Kaufman, Math. Comp. 31, 163 (1977))."""
    if not np.all(np.isfinite(block)):
        raise _unusable_pivot(at)
    lwork = int(dsytrf_lwork(len(block), lower=1)[0])
    factor, swaps, info = dsytrf(block, lower=1, lwork=lwork)
    if info == 0:
        inverse, info = dsytri(factor, swaps, lower=1)
    if info != 0:  # D has an exactly zero pivot
        raise _unusable_pivot(at)
    positives = (np.count_nonzero((swaps > 0) & (factor.diagonal() > 0.0))
                 + np.count_nonzero(swaps < 0) // 2)
    inverse = np.tril(inverse)
    inverse += np.tril(inverse, -1).T
    return inverse, positives


class _Sweep:
    """Block LDL^T of the symmetric block-tridiagonal matrix whose block rows
    are, from first to last: rows with the diagonal blocks diag(``top[y]``),
    rows with the dense blocks ``band[i]`` and rows with the diagonal blocks
    diag(``bottom[y]``), every row coupled to the next by ``coupling`` I.
    The ``top`` rows are eliminated downward and the ``bottom`` rows upward,
    so their pivots stay vectors, and the band last; ``band``, an array of
    at least one block, is overwritten with the inverses of its pivots.
    ``positives`` counts the positive eigenvalues of the matrix
    (Sylvester).  Raises :class:`ConvergenceError`, naming the shift ``at``,
    on a zero or non-finite pivot."""

    def __init__(self, top, band, bottom, coupling, at):
        self.coupling = coupling
        self.top = _chain_inverse_pivots(top, coupling, at)
        self.bottom = _chain_inverse_pivots(bottom[::-1], coupling, at)[::-1]
        self.band = band
        diagonal = np.diag_indices(band.shape[1])
        if len(top):
            band[0][diagonal] -= coupling**2 * self.top[-1]
        if len(bottom):
            band[-1][diagonal] -= coupling**2 * self.bottom[0]
        self.positives = (np.count_nonzero(self.top > 0.0)
                          + np.count_nonzero(self.bottom > 0.0))
        for i, block in enumerate(band):
            if i:
                block -= coupling**2 * band[i - 1]
            band[i], positives = _dense_pivot(block, at)
            self.positives += positives

    def solve(self, rows):
        """The matrix's inverse applied to ``rows``, one vector per block
        row."""
        x = np.array(rows, dtype=float)
        c, top, band, bottom = self.coupling, self.top, self.band, self.bottom
        start, stop = len(top), len(top) + len(band)
        # forward: x becomes D^-1 L^-1 rows
        for y in range(start):
            if y:
                x[y] -= c * x[y - 1]
            x[y] *= top[y]
        for y in range(len(x) - 1, stop - 1, -1):
            if y < len(x) - 1:
                x[y] -= c * x[y + 1]
            x[y] *= bottom[y - stop]
        if stop < len(x):
            x[stop - 1] -= c * x[stop]
        for y in range(start, stop):
            if y:
                x[y] -= c * x[y - 1]
            x[y] = band[y - start] @ x[y]
        # back: x becomes L^-T x
        for y in range(stop - 2, start - 1, -1):
            x[y] -= c * (band[y - start] @ x[y + 1])
        for y in range(start - 1, -1, -1):
            x[y] -= c * top[y] * x[y + 1]
        for y in range(stop, len(x)):
            x[y] -= c * bottom[y - stop] * x[y - 1]
        return x


def _half_sweep(half, pitch, k0, parity, shift):
    """The x-eigenbasis V of the half map ``half`` to the right of the mirror
    plane (with the centre column first for symmetric modes and without it
    for antisymmetric ones), and the :class:`_Sweep` of (operator - shift)
    with every grid row in that basis."""
    coupling = 1.0 / pitch**2
    neighbours = np.full(half.shape[1] - 1, coupling)
    if parity == PARITY_SYMMETRIC:
        # the mirror f[c-1] = f[c+1] doubles the centre-to-neighbour
        # coupling; solving for f[c] / sqrt(2) keeps the operator symmetric
        neighbours[0] = np.sqrt(2.0) * coupling
    eigenvalues, basis = eigh_tridiagonal(np.full(half.shape[1],
                                                  -2.0 * coupling),
                                          neighbours)
    index2 = k0**2 * half**2  # the operator's diagonal term, per cell
    outer = index2[:, -1]
    diagonals = eigenvalues + (outer - 2.0 * coupling - shift)[:, None]
    varying = np.flatnonzero(np.any(index2 != outer[:, None], axis=1))
    # a map uniform in x has no band; its last row stands in for one
    start, stop = (varying[0], varying[-1] + 1) if varying.size \
        else (len(half) - 1, len(half))
    band = np.zeros((stop - start,) + basis.shape)
    for block, row, diagonal in zip(band, index2[start:stop],
                                    diagonals[start:stop]):
        # V^T diag(row) V: its outer-column part is already in ``diagonal``,
        # the rest comes from the columns that differ from the outer one
        columns = np.flatnonzero(row != row[-1])
        rows = basis[columns]
        block[...] = (rows.T * (row[columns] - row[-1])) @ rows
        block[np.diag_indices(len(block))] += diagonal
    return basis, _Sweep(diagonals[:start], band, diagonals[stop:], coupling,
                         shift)


def _eigenpairs(half, pitch, k0, parity, k, sigma):
    """The ``k`` eigenpairs of the operator on ``half`` nearest ``sigma``,
    eigenvectors as grids shaped like ``half``, from one sweep of ``op -
    sigma I``.  ARPACK iterates on the rows' coefficients in the orthogonal
    x-eigenbasis V, where a shift-invert step is one sweep solve."""
    basis, sweep = _half_sweep(half, pitch, k0, parity, sigma)
    inverse = LinearOperator(
        (half.size, half.size), dtype=float,
        matvec=lambda vector: sweep.solve(vector.reshape(half.shape)).ravel())
    # a fixed start vector makes every solve bit-reproducible
    start = np.random.default_rng(0).uniform(-1.0, 1.0, half.shape) @ basis
    try:
        # shift-invert eigsh reads its first argument only for its shape and
        # dtype: the operator itself is never applied
        values, vectors = eigsh(inverse, k=k, sigma=sigma, which="LM",
                                OPinv=inverse, v0=start.ravel(),
                                maxiter=MAX_ITERATIONS, tol=EIGEN_TOLERANCE)
    except ArpackNoConvergence as exc:
        raise ConvergenceError(
            f"eigen-solver converged {len(exc.eigenvalues)} of {k} eigenpairs "
            f"within {MAX_ITERATIONS} iterations") from exc
    return values, vectors.T.reshape((k,) + half.shape) @ basis.T


def _mode_shift(index, pitch, wavelength):
    """Shift-invert target (beta^2) just above every eigenvalue of the map."""
    # the distinct columns, told apart by their bytes; the max over them
    # does not depend on their order
    columns = {column.tobytes(): column for column in index.T}
    n_top = max(_profile_effective_index(column, pitch, wavelength)
                for column in columns.values())
    return (2.0 * np.pi / wavelength * (n_top + SHIFT_MARGIN)) ** 2


def _mirror_halves(index):
    """The half maps right of the mirror plane of ``index``, one per parity:
    with the centre column for symmetric modes, without it for antisymmetric
    ones.  Raises :class:`InvalidGeometryError` unless every index is
    finite, and ``ValueError`` unless the map has an odd number of
    columns, at least 3, and is mirror-symmetric about the centre one."""
    if not np.isfinite(index).all():
        raise InvalidGeometryError("map has a non-finite refractive index")
    nx = index.shape[1]
    if nx < 3 or nx % 2 == 0 or not np.array_equal(index, index[:, ::-1]):
        raise ValueError("map must be at least 3 columns wide and "
                         "mirror-symmetric about its centre column")
    c = nx // 2
    return [(PARITY_SYMMETRIC, index[:, c:]),
            (PARITY_ANTISYMMETRIC, index[:, c + 1:])]


def _modes_above(index_map, tau):
    """Number of modes (beta^2 eigenvalues) of the map above ``tau``, both
    parities: the positive pivots of one :class:`_Sweep` of the operator
    shifted to ``tau`` per mirror half."""
    k0 = 2.0 * np.pi / index_map.wavelength_nm
    return sum(_half_sweep(half, index_map.pitch_nm, k0, parity,
                           tau)[1].positives
               for parity, half in _mirror_halves(index_map.index))


def _full_field(half, parity):
    """Mirror a half-domain eigenvector back onto the full grid."""
    if parity == PARITY_SYMMETRIC:
        right = np.hstack([np.sqrt(2.0) * half[:, :1], half[:, 1:]])
        return np.hstack([right[:, :0:-1], right])
    return np.hstack([-half[:, ::-1], np.zeros((half.shape[0], 1)), half])


def solve_modes(index_map, n_modes=1):
    """Guided modes of an index map at its own wavelength, sorted by
    descending effective index.

    The map's ``substrate_index`` is the cutoff: modes with n_eff at or
    below it are discarded, so fewer than ``n_modes`` solutions may come
    back.  A single mode needs only the symmetric half: the operator's
    off-diagonals are non-negative and it is irreducible, so by
    Perron-Frobenius its top eigenvector is positive everywhere, hence
    mirror-symmetric.  More modes ask each half for ``n_modes`` eigenpairs:
    a mode among the top ``n_modes`` has fewer above it, so is among its
    own half's top ``n_modes``.  Each half is factorised once, by the
    layer-by-layer sweep of the module docstring (band rows x N^3 time and
    band rows x N^2 x 8 B for N columns in the half), and every ARPACK
    step is one sweep solve.  Fields are built only for the modes returned.
    Raises ``ValueError`` unless ``n_modes`` lies in [1, ``MAX_MODES``]
    and the map has an odd number of columns, at least 3, and is
    mirror-symmetric about the centre one (:class:`InvalidGeometryError`
    if an index is not finite); raises
    :class:`ConvergenceError` if ARPACK needs more than
    ``MAX_ITERATIONS`` iterations to reach ``EIGEN_TOLERANCE``, or the
    sweep meets a zero or non-finite pivot.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be at least 1")
    if n_modes > MAX_MODES:
        raise ValueError(f"n_modes must be at most {MAX_MODES}")
    wavelength = index_map.wavelength_nm
    k0 = 2.0 * np.pi / wavelength
    index, pitch = index_map.index, index_map.pitch_nm
    halves = _mirror_halves(index)
    if n_modes == 1:
        halves = halves[:1]
    sigma = _mode_shift(index, pitch, wavelength)
    candidates = []  # (n_eff, parity, half-domain eigenvector)
    for parity, half in halves:
        k = min(n_modes, half.size - 1)
        for val, vec in zip(*_eigenpairs(half, pitch, k0, parity, k, sigma)):
            n_eff = float(np.sqrt(max(val, 0.0)) / k0)
            if n_eff > index_map.substrate_index:
                candidates.append((n_eff, parity, vec))
    candidates.sort(key=lambda candidate: candidate[0], reverse=True)
    solutions = []
    for n_eff, parity, vec in candidates[:n_modes]:
        field = _full_field(vec, parity)
        field = field / np.sqrt(np.sum(field**2) * pitch * pitch)
        if field.ravel()[np.abs(field).argmax()] < 0:
            field = -field
        solutions.append(ModeSolution(n_eff, field, parity))
    return solutions


def coupling_length_from_indices(n_symmetric, n_antisymmetric, wavelength_nm):
    """Beat length (um) for full power transfer, from the supermode splitting."""
    delta_n = n_symmetric - n_antisymmetric
    if delta_n <= 0:
        raise ValueError("symmetric supermode index must exceed the antisymmetric one")
    return (wavelength_nm / 1000.0) / (2.0 * delta_n)


def supermode_coupling_length(geometry, wavelength_nm, *,
                              grid_pitch_nm=DEFAULT_GRID_PITCH_NM):
    """Coupling length (um) of a two-rib coupler from its supermode splitting
    on the default cross-section (TE core index, 2 um padding).

    Solves the strongest symmetric and antisymmetric supermodes and raises
    :class:`DecoupledWaveguidesError` when either is missing or the splitting
    is below ``DEGENERACY_TOLERANCE`` (effectively decoupled waveguides).
    """
    if geometry.gap_um is None:
        raise ValueError("geometry has no gap: not a two-waveguide coupler")
    index_map = build_cross_section(geometry, wavelength_nm,
                                    grid_pitch_nm=grid_pitch_nm)
    n_eff = {}
    for mode in solve_modes(index_map, 2):
        n_eff.setdefault(mode.parity, mode.n_eff)
    if len(n_eff) < 2:
        raise DecoupledWaveguidesError("fewer than two guided supermodes found; waveguides "
                                       "are effectively decoupled at this gap")
    sym, anti = n_eff[PARITY_SYMMETRIC], n_eff[PARITY_ANTISYMMETRIC]
    if sym - anti < DEGENERACY_TOLERANCE:
        raise DecoupledWaveguidesError(f"supermode splitting {sym - anti:.3e} below "
                                       f"tolerance {DEGENERACY_TOLERANCE:.0e}")
    return coupling_length_from_indices(sym, anti, wavelength_nm)


def _profile_effective_index(profile, pitch_nm, wavelength_nm):
    """Largest effective index of a 1D layered index profile (0 if unbound)."""
    k0 = 2.0 * np.pi / wavelength_nm
    top = eigh_tridiagonal(k0**2 * profile**2 - 2.0 / pitch_nm**2,
                           np.full(profile.size - 1, 1.0 / pitch_nm**2),
                           select="i", select_range=(profile.size - 1,) * 2)[0][0]
    return float(np.sqrt(max(top, 0.0)) / k0)


def guided_mode_count(geometry, wavelength_nm, *,
                      grid_pitch_nm=DEFAULT_GRID_PITCH_NM):
    """Number of laterally confined modes of a single rib on the default
    cross-section (TE core index, 2 um padding), every one counted.

    A rib mode only counts as guided when its effective index exceeds the
    etched-slab effective index (otherwise it leaks sideways into the slab);
    that cutoff is computed from the 1D layer profile far from the rib, with
    ``CUTOFF_MARGIN`` as the separation required above it.  The count runs
    no eigensolve: it is the inertia of the operator shifted to the cutoff,
    the positive pivots of one layer-by-layer sweep per mirror half (see
    :class:`_Sweep`), at the cost of the factorisation behind
    :func:`solve_modes`, so it raises :class:`ConvergenceError` on a zero
    or non-finite pivot.
    """
    if geometry.gap_um is not None:
        raise ValueError("single-waveguide geometry required")
    index_map = build_cross_section(geometry, wavelength_nm,
                                    grid_pitch_nm=grid_pitch_nm)
    slab = _profile_effective_index(index_map.index[:, 0], index_map.pitch_nm,
                                    wavelength_nm)
    cutoff = max(slab, index_map.substrate_index)
    k0 = 2.0 * np.pi / wavelength_nm
    return _modes_above(index_map, (k0 * (cutoff + CUTOFF_MARGIN)) ** 2)
