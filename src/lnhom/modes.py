"""Finite-difference mode solving on waveguide cross-sections.

The solver treats the dominant transverse field component semi-vectorially:
the scalar Helmholtz equation

    (d2/dx2 + d2/dy2) f + k0^2 n^2(x, y) f = beta^2 f

is discretised with the standard 5-point stencil on the square cells (one
pitch h for x and y) of an :class:`~lnhom.geometry.IndexMap` and solved as a
symmetric eigenproblem, on numpy alone, by a Lanczos iteration
(:func:`eigsh`) on the inverse of (operator - shift), the shift just above
the top effective index of the 1D profile of row maxima, which bounds every
mode (:func:`_mode_shift`).  Every map is solved on half its width: it
must be mirror-symmetric about an odd centre column, and its right half is
solved twice, with a reflecting centre for symmetric modes and a
zero-field centre for antisymmetric ones, so the boundary condition fixes
the parity (once, symmetric, when only the fundamental mode is asked
for).  Each half is asked for the number of modes wanted, no more, and
for one, its top mode, by the beat length.  Outer boundaries are
zero-field: guided modes decay into the padding.

The cross-section is a stack of full-width layers, and only the etched rib
rows change across x, so each half is solved layer by layer.  Its 1D x
second difference is T_x = V Lambda V^T, with V in closed form.  With every
grid row moved to the basis V, the operator is block tridiagonal along y
with off-diagonal blocks I / h^2, and the diagonal block of a row whose
index does not change across x is the diagonal Lambda - 2 / h^2 + k0^2
n(y)^2, as in the fast direct solvers of separable problems (Buzbee, Golub
& Nielson, SIAM J. Numer. Anal. 7, 627 (1970)).  Only the x-varying rows
get dense blocks, V^T diag(k0^2 n^2) V + ....  One block LDL^T of
(operator - shift) per half eliminates the rows in one order: the uniform
rows above the first x-varying one downward and those below the last
upward, whose pivots stay vectors given by the continued fractions p_y =
d_y - h^-4 / p_(y -+ 1) of the row diagonals d_y, then the rows from the
first x-varying one to the last, whose pivots are dense.  With the shift
above the spectrum every pivot is negative definite, and each is inverted
by the same elimination on halves of it, whose Cholesky leaves prove it
so (:func:`_definite_inverse`).  The Lanczos iteration runs on the rows'
coefficients in V, each step one forward and one back pass over that
order; its start is built in V, so V only maps the eigenvectors out.  For
N columns in the half each dense row costs the factorisation N^3 time and
N^2 x 8 B of memory, about 17 MB in all for a coupler at 10 nm pitch; a
build_cross_section map has etch_depth / pitch dense rows.  The halves
are solved one after the other, and each half's sweep and basis are freed
before the next is factorised, so one half is resident at a time.

Counting guided modes needs no eigensolve.  By Sylvester's law of inertia
(Parlett, The Symmetric Eigenvalue Problem, 1980, sec. 3.3) the number of
eigenvalues of the operator above tau equals the number of positive pivots
of an LDL^T factorisation of (operator - tau I), so the same sweep shifted
to tau counts every mode above the cutoff exactly, with no cap: the
positive entries of its vector pivots plus the positive eigenvalues of
each dense pivot that is not negative definite, which is inverted whole
by ``eigh`` (:func:`_pivot_inverse`).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (ConvergenceError, DecoupledWaveguidesError,
                     InvalidGeometryError)
from .geometry import DEFAULT_GRID_PITCH_NM, build_cross_section

PARITY_SYMMETRIC = "symmetric"
PARITY_ANTISYMMETRIC = "antisymmetric"

# effective-index gap between the profile bound and the shift
SHIFT_MARGIN = 1e-3
# most modes a solve may ask for: a sub-micron LN rib or rib pair guides a
# handful, and the Lanczos basis of eigsh holds max(2k + 1, 20) + 1
# half-size vectors, so 32 keeps it to 66, near 105 MB on a 200k-unknown half
MAX_MODES = 32
# restart cycles of that capped basis, and the Ritz residual, relative to
# its eigenvalue, at which an eigenpair has converged
MAX_ITERATIONS = 10_000
EIGEN_TOLERANCE = 1e-10
# step of the Weyl sequence (_weyl) that a solve starts and restarts from
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
# order at which _definite_inverse stops halving a block: inverting a
# 375 x 375 pivot took 14.8 ms with LAPACK's inv, 3.2 ms halved down to 64
# (3.1 and 3.6 ms down to 32 and 128; numpy 2.4, one BLAS thread, x86_64)
DEFINITE_ORDER = 64
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


def _definite_inverse(block):
    """Inverse of the negative definite symmetric ``block`` by the sweep's
    elimination on halves: with X the inverse of A, W = X B and S = D - B^T
    W, [[A, B], [B^T, D]]^-1 = [[X + W S^-1 W^T, -W S^-1], [-S^-1 W^T,
    S^-1]], and the block is negative definite if and only if A and S are
    (Sylvester).  A leaf of at most ``DEFINITE_ORDER`` takes Cholesky, which
    proves it so, and ``inv``.  Raises ``numpy.linalg.LinAlgError`` if a
    leaf is not negative definite."""
    if len(block) <= DEFINITE_ORDER:
        np.linalg.cholesky(-block)
        return np.linalg.inv(block)
    h = len(block) // 2
    leading = _definite_inverse(block[:h, :h])
    w = leading @ block[:h, h:]
    trailing = _definite_inverse(block[h:, h:] - block[h:, :h] @ w)
    coupling = -(w @ trailing)
    inverse = np.empty_like(block)
    inverse[:h, :h] = leading - coupling @ w.T
    inverse[:h, h:] = coupling
    inverse[h:, :h] = coupling.T
    inverse[h:, h:] = trailing
    return inverse


def _pivot_inverse(block, at):
    """Inverse of the symmetric pivot ``block`` (a vector v for diag(v)) and
    its number of positive eigenvalues.  A dense one that is negative
    definite, as every pivot of the shift-invert sweep is, is inverted by
    :func:`_definite_inverse`; any other, whole, by ``eigh``, whose
    eigenvalues give the count: halving it without pivoting would lose
    digits with the condition of its halves.  Raises
    :class:`ConvergenceError`, naming the shift ``at``, on a non-finite
    block or a zero eigenvalue."""
    if not np.isfinite(block).all():
        raise _unusable_pivot(at)
    if block.ndim == 1:
        values = block
    else:
        try:
            return _definite_inverse(block), 0
        except np.linalg.LinAlgError:
            values, vectors = np.linalg.eigh(block)
    if not np.all(values != 0.0):
        raise _unusable_pivot(at)
    inverse = (1.0 / values if block.ndim == 1
               else (vectors / values) @ vectors.T)
    return inverse, np.count_nonzero(values > 0.0)


class _Sweep:
    """Block LDL^T of the symmetric block-tridiagonal matrix with one
    diagonal block per row, ``blocks[y]``: a vector v for diag(v) or a dense
    matrix, every row coupled to the next by ``coupling`` I.  The rows are
    eliminated in one order: those above the first dense row downward,
    those below the last dense row upward, then the rows between, each into
    its neighbour toward the end of that order.  So the vector rows outside
    the dense ones keep vector pivots, and only a vector row between two
    dense rows takes a dense one.  ``blocks`` and its arrays are overwritten
    with the inverses of the pivots.  ``positives`` counts the positive
    eigenvalues of the matrix (Sylvester).  Raises :class:`ConvergenceError`,
    naming the shift ``at``, on a zero or non-finite pivot."""

    def __init__(self, blocks, coupling, at):
        dense = [y for y, block in enumerate(blocks) if block.ndim == 2]
        first, last = (dense[0], dense[-1]) if dense else [len(blocks) - 1] * 2
        # each row with the neighbour it is eliminated into (none for last)
        steps = [(y, y + 1 if y < last else y - 1) for y in
                 [*range(first), *range(len(blocks) - 1, last, -1),
                  *range(first, last)]] + [(last, None)]
        self.coupling, self.positives = coupling, 0
        for y, to in steps:
            # inverses overwrite their pivots: new arrays for the vector
            # ones alone took 31 MB more peak RSS in a 10 nm modes run
            blocks[y][...], positives = _pivot_inverse(blocks[y], at)
            self.positives += positives
            if to is not None:
                update = coupling**2 * blocks[y]
                if blocks[to].ndim < update.ndim:  # fill-in
                    blocks[to] = np.diag(blocks[to])
                if update.ndim < blocks[to].ndim:
                    blocks[to][np.diag_indices(len(update))] -= update
                else:
                    blocks[to] -= update
        self.steps = [(y, to, blocks[y]) for y, to in steps]

    def solve(self, rows):
        """The matrix's inverse applied to ``rows``, one vector per block
        row."""
        x = np.array(rows, dtype=float)
        c = self.coupling
        # forward: x becomes D^-1 L^-1 rows
        for y, to, inverse in self.steps:
            if inverse.ndim == 2:
                x[y] = inverse @ x[y]
            else:
                x[y] *= inverse
            if to is not None:
                x[to] -= c * x[y]
        # back: x becomes L^-T x
        for y, to, inverse in reversed(self.steps[:-1]):
            x[y] -= c * (inverse @ x[to]) if inverse.ndim == 2 \
                else c * inverse * x[to]
        return x


def _half_sweep(half, pitch, k0, parity, shift):
    """The x-eigenbasis V of the N-column half map ``half`` right of the
    mirror plane, and the :class:`_Sweep` of (operator - shift) in it, one
    block per grid row: a vector for a row uniform across x, V^T diag(k0^2
    n^2) V + ... for one that varies.  T_x = V Lambda V^T in closed form:
    V[k, j] ~ cos(theta_j k), row 0 / sqrt(2), theta_j = (j + 1/2) pi / N,
    for symmetric modes (centre column first); V[k, j] ~ sin(theta_j (k +
    1)), theta_j = (j + 1) pi / (N + 1), for antisymmetric ones; unit
    columns; Lambda_j = -(4/h^2) sin^2(theta_j/2)."""
    coupling = 1.0 / pitch**2
    j = np.arange(half.shape[1])
    # theta_j = pi p_j / q: phases reduced mod 2 pi in integers stay exact
    if parity == PARITY_SYMMETRIC:
        # the unknown f[c] / sqrt(2) keeps the mirrored operator symmetric
        p, q = 2 * j + 1, 2 * len(j)
        basis = np.cos(np.pi / q * (np.outer(j, p) % (2 * q)))
        basis[0] /= np.sqrt(2.0)
    else:
        p, q = j + 1, len(j) + 1
        basis = np.sin(np.pi / q * (np.outer(j + 1, p) % (2 * q)))
    basis /= np.linalg.norm(basis, axis=0)
    eigenvalues = -4.0 * coupling * np.sin(np.pi * p / (2 * q)) ** 2
    index2 = k0**2 * half**2  # the operator's diagonal term, per cell
    outer = index2[:, -1:]
    blocks = list(eigenvalues + (outer - 2.0 * coupling - shift))
    for y in np.flatnonzero(np.any(index2 != outer, axis=1)):
        # V^T diag(row) V: the vector block holds its outer-column part,
        # the rest comes from the columns that differ from the outer one
        columns = np.flatnonzero(index2[y] != outer[y])
        rows = basis[columns]
        block = (rows.T * (index2[y, columns] - outer[y])) @ rows
        block[np.diag_indices(len(block))] += blocks[y]
        blocks[y] = block
    return basis, _Sweep(blocks, coupling, shift)


def _weyl(count, step, skip=0):
    """The ``count`` terms after the first ``skip`` of the Weyl sequence 2
    frac(i ``step``) - 1, i = 1, 2, ....  For an irrational ``step`` the
    terms fill (-1, 1) evenly and never repeat (Weyl, Math. Ann. 77, 313
    (1916)), so a solver that starts or restarts from them needs no random
    numbers, and its bits do not hang on a generator's stream."""
    return 2.0 * np.modf(np.arange(skip + 1, skip + count + 1) * step)[0] - 1.0


def eigsh(apply, start, *, k):
    """The ``k`` largest-magnitude eigenvalues of the symmetric linear map
    ``apply`` (an array shaped like ``start`` to another), descending in
    magnitude, and their unit eigenvectors stacked along a new first axis.

    Lanczos iteration from ``start``, with each new vector orthogonalised
    against the whole basis twice (Parlett, The Symmetric Eigenvalue
    Problem, 1980, ch. 13).  The Ritz pairs (theta, y) of the basis come
    from the basis' projection of ``apply``; one has converged when its
    residual |beta s_last| is at most ``EIGEN_TOLERANCE`` |theta|.  Each
    pair is kept from the first step at which it and every larger one have
    converged: the steps do not depend on ``k``, so neither do the pairs
    kept.  The basis holds at most ncv = max(2k + 1, 20) vectors; a full
    one restarts thick, from its (ncv + 1) // 2 largest Ritz vectors and
    the residual direction (Wu & Simon, SIAM J. Matrix Anal. Appl. 22, 602
    (2000)).  Raises :class:`ConvergenceError`, with the number of pairs
    converged, if ``MAX_ITERATIONS`` bases do not converge ``k``.

    The start vector's Krylov space holds one eigenvector of each
    eigenvalue.  The other eigenvectors of a repeated one enter the basis
    through rounding, or from a new direction once the basis spans an
    invariant space, and may overtake kept pairs: a kept pair whose Ritz
    vector has left its place is kept again, with every pair after it,
    from that step.  A basis that can hold the whole space returns only once
    it does, so it holds every copy; a larger space can return a repeated
    eigenvalue fewer times than it repeats, if its other eigenvectors enter
    after ``k`` pairs have converged.  In a mirror half an eigenvalue
    repeats only under a further symmetry, such as that of a uniform square
    map.  The i-th new direction is the :func:`_weyl` sequence that
    :func:`_top_modes` starts from, advanced by i terms, so every call
    gives the same bits.  Its phase moves by frac(i a), a = (sqrt(5) - 1)
    / 2, distinct for each i and, for the first few, far from 0 and 1
    whatever ``start.size``, so none repeats the start or another.
    """
    size = start.size
    ncv = min(max(2 * k + 1, 20), size)
    basis = np.empty((ncv + 1, size))
    basis[0] = start.ravel() / np.linalg.norm(start)
    projected = np.zeros((ncv, ncv))  # basis^T apply basis
    restarts = 0  # the new directions taken
    values, vectors = [], []
    tracked = np.zeros((0, 0))  # the kept pairs' Ritz coefficients
    first = 0  # the basis vectors kept over the restarts
    for _ in range(MAX_ITERATIONS):
        for j in range(first, ncv):
            vector = apply(basis[j].reshape(start.shape)).ravel()
            coefficients = np.zeros(j + 1)
            for _ in range(2):
                step = basis[:j + 1] @ vector
                vector -= step @ basis[:j + 1]
                coefficients += step
            projected[:j + 1, j] = projected[j, :j + 1] = coefficients
            beta = np.linalg.norm(vector)
            # the second pass removed more than it left: the basis spans an
            # invariant space, and the rounding left over is no direction
            exhausted = np.linalg.norm(step) > beta
            thetas, ritz = np.linalg.eigh(projected[:j + 1, :j + 1])
            order = np.argsort(-np.abs(thetas), kind="stable")
            thetas, ritz = thetas[order], ritz[:, order]
            # a kept pair whose Ritz vector left its place was overtaken by
            # an eigenvector seen late: keep the pairs before it only
            moved = np.abs(np.sum(ritz[:len(tracked), :len(values)] * tracked,
                                  axis=0)) < 0.5
            del values[int(moved.argmax()) if moved.any() else len(values):]
            del vectors[len(values):]
            converged = np.abs(beta * ritz[-1]) <= \
                EIGEN_TOLERANCE * np.abs(thetas)
            leading = j + 1 if converged.all() else int(converged.argmin())
            for i in range(len(values), leading):
                values.append(thetas[i])
                vectors.append(ritz[:, i] @ basis[:j + 1])
            # a basis that can hold the whole space first does, so it holds
            # every copy of a repeated eigenvalue
            if len(values) >= k and (ncv < size or j + 1 == size):
                return (np.array(values[:k]),
                        np.array(vectors[:k]).reshape((k,) + start.shape))
            tracked = ritz[:, :len(values)]
            if exhausted:  # go on from a new direction
                # advancing by whole start lengths would move the phase by
                # frac(i size a), near 0 where size is a Fibonacci number:
                # at 21 and 55 cells that direction lay in the basis
                restarts += 1
                vector = _weyl(size, _GOLDEN, restarts)
                for _ in range(2):
                    vector -= (basis[:j + 1] @ vector) @ basis[:j + 1]
                beta = np.linalg.norm(vector)
            basis[j + 1] = vector / beta
        first = (ncv + 1) // 2
        basis[:first] = ritz[:, :first].T @ basis[:ncv]
        basis[first] = basis[ncv]
        projected[:] = 0.0
        projected[np.diag_indices(first)] = thetas[:first]
        tracked = np.eye(first, len(values))
    raise ConvergenceError(
        f"eigen-solver converged {min(len(values), k)} of {k} eigenpairs "
        f"within {MAX_ITERATIONS} iterations")


def _top_modes(index_map, halves, n_modes):
    """(n_eff, parity, eigenvector as a grid shaped like its half) of the
    top ``n_modes`` eigenpairs of each (parity, half map) in ``halves``
    that lie above the map's ``substrate_index``.  Each half takes one
    sweep of (operator - sigma), sigma the map's :func:`_mode_shift`:
    :func:`eigsh` finds the inverse's largest-magnitude eigenvalues nu, at
    sigma + 1 / nu, iterating on rows' coefficients in the orthogonal
    x-eigenbasis V, where one step is one sweep solve."""
    wavelength, pitch = index_map.wavelength_nm, index_map.pitch_nm
    k0 = 2.0 * np.pi / wavelength
    sigma = _mode_shift(index_map.index, pitch, wavelength)
    candidates = []
    for parity, half in halves:
        basis, sweep = _half_sweep(half, pitch, k0, parity, sigma)
        # a fixed start, the half's coefficients in V drawn from the golden
        # Weyl sequence, makes every solve bit-reproducible
        start = _weyl(half.size, _GOLDEN).reshape(half.shape)
        values, vectors = eigsh(sweep.solve, start, k=min(n_modes, half.size))
        vectors = vectors @ basis.T  # drops the coefficients before next half
        # the next half is factorised with this one's sweep, basis and
        # start vector freed, so one half is resident at a time
        del basis, sweep, start
        for val, vec in zip(sigma + 1.0 / values, vectors):
            n_eff = float(np.sqrt(max(val, 0.0)) / k0)
            if n_eff > index_map.substrate_index:
                candidates.append((n_eff, parity, vec))
    return candidates


def _mode_shift(index, pitch, wavelength):
    """Shift-invert target (beta^2) just above every eigenvalue of the map:
    the profile of row maxima dominates every column cell by cell, so the
    operator lies below T_x (x) I + I (x) (T_y + D_max), and T_x <= 0."""
    n_top = _profile_effective_index(index.max(axis=1), pitch, wavelength)
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
    layer-by-layer sweep of the module docstring, and every Lanczos step is
    one sweep solve.  Up to 9 modes share one Lanczos basis size, so a
    mode's n_eff and field are the same, bit for bit, for every such
    ``n_modes`` that returns it.  Fields are built only for the modes
    returned.  On a half of more than max(2 n_modes + 1, 20) cells, an
    n_eff that repeats within it can come back fewer times than it repeats
    (see :func:`eigsh`).  Raises ``ValueError`` unless ``n_modes`` is an
    integer, not a bool, in [1, ``MAX_MODES``] and the map has an odd
    number of columns, at least 3, and is mirror-symmetric about the centre
    one (:class:`InvalidGeometryError` if an index is not finite); raises
    :class:`ConvergenceError` if the Lanczos basis needs more than
    ``MAX_ITERATIONS`` restarts to reach ``EIGEN_TOLERANCE``, or the sweep
    meets a zero or non-finite pivot.
    """
    # a bool is an Integral; a float, even 2.0, would fail in the slicing
    if isinstance(n_modes, bool) or not isinstance(n_modes, numbers.Integral):
        raise ValueError("n_modes must be an integer")
    if n_modes < 1:
        raise ValueError("n_modes must be at least 1")
    if n_modes > MAX_MODES:
        raise ValueError(f"n_modes must be at most {MAX_MODES}")
    pitch = index_map.pitch_nm
    # one mode needs only the symmetric half, the first
    halves = _mirror_halves(index_map.index)[:n_modes]
    candidates = _top_modes(index_map, halves, n_modes)
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

    Asks each mirror half for its top eigenpair only: by Perron-Frobenius,
    as in :func:`solve_modes`, each half's top eigenvector is positive on
    the half, so it is the fundamental supermode of that half's parity.
    Raises :class:`DecoupledWaveguidesError` when either is not guided or
    the splitting is below ``DEGENERACY_TOLERANCE`` (effectively decoupled
    waveguides).
    """
    if geometry.gap_um is None:
        raise ValueError("geometry has no gap: not a two-waveguide coupler")
    index_map = build_cross_section(geometry, wavelength_nm,
                                    grid_pitch_nm=grid_pitch_nm)
    n_eff = {parity: n for n, parity, _ in
             _top_modes(index_map, _mirror_halves(index_map.index), 1)}
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
    coupling = np.full(profile.size - 1, 1.0 / pitch_nm**2)
    top = np.linalg.eigvalsh(np.diag(k0**2 * profile**2 - 2.0 / pitch_nm**2)
                             + np.diag(coupling, 1) + np.diag(coupling, -1))[-1]
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
