"""Finite-difference mode solving on waveguide cross-sections.

The solver treats the dominant transverse field component semi-vectorially:
the scalar Helmholtz equation

    (d2/dx2 + d2/dy2) f + k0^2 n^2(x, y) f = beta^2 f

is discretised with the standard 5-point stencil on the square cells (one
pitch for x and y) of an :class:`~lnhom.geometry.IndexMap` and solved as a
sparse symmetric eigenproblem by shift-invert ARPACK.  The shift sits just
above the largest effective index of any single grid column, an upper bound
on every mode because d2/dx2 is negative semi-definite.  Every map is solved
on half its width: it must be mirror-symmetric about an odd centre column,
and its right half is solved twice, with a reflecting centre for symmetric
modes and a zero-field centre for antisymmetric ones, so the boundary
condition fixes the parity (once, symmetric, when only the fundamental mode
is asked for).  Each half is asked for the number of modes wanted, no
more.  Outer boundaries are zero-field: guided modes decay into the padding.

Counting guided modes needs no eigensolve.  By Sylvester's law of inertia
(Parlett, The Symmetric Eigenvalue Problem, 1980, sec. 3.3) the number of
eigenvalues of the operator above tau equals the number of positive pivots
of an LDL^T factorisation of (operator - tau I), so one sparse factorisation
per mirror half counts every mode above the cutoff exactly, with no cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh, splu

from .errors import ConvergenceError, DecoupledWaveguidesError
from .geometry import DEFAULT_GRID_PITCH_NM, build_cross_section

PARITY_SYMMETRIC = "symmetric"
PARITY_ANTISYMMETRIC = "antisymmetric"

# effective-index gap between the column bound and the shift
SHIFT_MARGIN = 1e-3
# most modes a solve may ask for: a sub-micron LN rib or rib pair guides a
# handful, and ARPACK holds 2k + 1 Lanczos vectors of the half-domain
# size, so 32 keeps them to at most 65, near 105 MB on a 200k-unknown half
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


def _second_difference(n, h):
    """1D second difference with zero-field ends."""
    off = np.ones(n - 1)
    return sp.diags([off, np.full(n, -2.0), off], [-1, 0, 1]) / h**2


def _helmholtz_operator(index, pitch, k0, parity):
    """5-point operator on the half map ``index`` to the right of the mirror
    plane, with the centre column first for symmetric modes and without it
    for antisymmetric ones."""
    ny, nx = index.shape
    dxx = _second_difference(nx, pitch).tolil()
    if parity == PARITY_SYMMETRIC:
        # the mirror f[c-1] = f[c+1] doubles the centre-to-neighbour
        # coupling; solving for f[c] / sqrt(2) keeps the operator symmetric
        dxx[0, 1] = dxx[1, 0] = np.sqrt(2.0) / pitch**2
    dyy = _second_difference(ny, pitch)
    lap = sp.kron(sp.identity(ny), dxx) + sp.kron(dyy, sp.identity(nx))
    return (lap + sp.diags(k0**2 * index.ravel() ** 2)).tocsc()


def _shift_invert(op, k, sigma):
    """The ``k`` eigenpairs of ``op`` nearest ``sigma``, from one factorisation
    of ``op - sigma I``."""
    lu = splu((op - sigma * sp.identity(op.shape[0])).tocsc(),
              permc_spec="MMD_AT_PLUS_A")
    inverse = LinearOperator(op.shape, matvec=lu.solve, dtype=float)
    # a fixed start vector makes every solve bit-reproducible
    start = np.random.default_rng(0).uniform(-1.0, 1.0, op.shape[0])
    try:
        return eigsh(op, k=k, sigma=sigma, which="LM", OPinv=inverse,
                     v0=start, maxiter=MAX_ITERATIONS, tol=EIGEN_TOLERANCE)
    except ArpackNoConvergence as exc:
        raise ConvergenceError(
            f"eigen-solver converged {len(exc.eigenvalues)} of {k} eigenpairs "
            f"within {MAX_ITERATIONS} iterations") from exc


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
    ones.  Raises ``ValueError`` unless the map has an odd number of
    columns, at least 3, and is mirror-symmetric about the centre one."""
    nx = index.shape[1]
    if nx < 3 or nx % 2 == 0 or not np.array_equal(index, index[:, ::-1]):
        raise ValueError("map must be at least 3 columns wide and "
                         "mirror-symmetric about its centre column")
    c = nx // 2
    return [(PARITY_SYMMETRIC, index[:, c:]),
            (PARITY_ANTISYMMETRIC, index[:, c + 1:])]


def _eigenvalues_above(op, tau):
    """Number of eigenvalues of the symmetric ``op`` above ``tau``: the
    positive pivots of one LDL^T factorisation of ``op - tau I`` (Sylvester's
    law of inertia).

    Raises :class:`ConvergenceError` when a pivot leaves the diagonal (the
    factors are then no LDL^T) or is zero or not finite.
    """
    try:
        lu = splu((op - tau * sp.identity(op.shape[0])).tocsc(),
                  permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
    except RuntimeError as exc:  # SuperLU met an exactly zero pivot
        raise ConvergenceError(f"inertia count at {tau!r}: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise ConvergenceError(f"inertia count at {tau!r}: off-diagonal pivot")
    pivots = lu.U.diagonal()
    if not np.all(np.isfinite(pivots) & (pivots != 0.0)):
        raise ConvergenceError(f"inertia count at {tau!r}: zero or non-finite "
                               "pivot")
    return int(np.count_nonzero(pivots > 0.0))


def _modes_above(index_map, tau):
    """Number of modes (beta^2 eigenvalues) of the map above ``tau``, both
    parities; each factorisation lives only inside its
    :func:`_eigenvalues_above` call."""
    k0 = 2.0 * np.pi / index_map.wavelength_nm
    return sum(_eigenvalues_above(_helmholtz_operator(half, index_map.pitch_nm,
                                                      k0, parity),
                                  tau)
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
    own half's top ``n_modes``.  Fields are built only for those returned.
    Raises ``ValueError`` unless ``n_modes`` lies in [1, ``MAX_MODES``]
    and the map has an odd number of columns, at least 3, and is
    mirror-symmetric about the centre one; raises
    :class:`ConvergenceError` if ARPACK needs more than
    ``MAX_ITERATIONS`` iterations to reach ``EIGEN_TOLERANCE``.
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
        op = _helmholtz_operator(half, pitch, k0, parity)
        k = min(n_modes, op.shape[0] - 1)
        vals, vecs = _shift_invert(op, k, sigma)
        for val, vec in zip(vals, vecs.T):
            n_eff = float(np.sqrt(max(val, 0.0)) / k0)
            if n_eff > index_map.substrate_index:
                candidates.append((n_eff, parity, vec.reshape(half.shape)))
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
    d2 = _second_difference(profile.size, pitch_nm)
    top = eigh_tridiagonal(d2.diagonal() + k0**2 * profile**2, d2.diagonal(1),
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
    from one factorisation per mirror half (see :func:`_eigenvalues_above`), so
    it raises :class:`ConvergenceError` where that factorisation does.
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
