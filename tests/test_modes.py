"""Finite-difference mode solver against analytic oracles and invariants."""

import sys
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import block_diag, eigh_tridiagonal

import _oracles as oracle
from lnhom import materials, modes
from lnhom.errors import (ConvergenceError, DecoupledWaveguidesError,
                          InvalidGeometryError)
from lnhom.geometry import (IndexMap, WaveguideGeometry, build_cross_section,
                            reference_geometry)
from lnhom.modes import (PARITY_ANTISYMMETRIC, PARITY_SYMMETRIC, _mode_shift,
                         coupling_length_from_indices, guided_mode_count,
                         solve_modes, supermode_coupling_length)

# analytic slab effective indices for a 600 nm LN film in silica at 1550 nm,
# frozen from the bisection oracle
SLAB_N_EFF = (1.9683745349109252, 1.5057780320568979)


def _uniform_map(n=2.0, cells=11, pitch=50.0):
    shape = (cells, cells)
    return IndexMap(
        index=np.full(shape, n),
        x_nm=np.arange(cells) * pitch,
        y_nm=np.arange(cells) * pitch,
        pitch_nm=pitch,
        wavelength_nm=1550.0,
        substrate_index=0.0,
    )


def _slab_map(pad_nm=3000.0, pitch=20.0, columns=101):
    # x-uniform: the 600 nm LN film in silica, about 2 um wide.  TE1 needs
    # about 1.8 um between the zero-field edges to stay guided, and from
    # about 1 um up the x-harmonics of TE0 lie above it, so the guided modes
    # are TE0 with 1, 2 and 3 half-waves across x, then TE1
    n_core = float(materials.lithium_niobate_extraordinary(1550.0))
    n_clad = float(materials.silica(1550.0))
    ny = int((600.0 + 2 * pad_nm) / pitch)
    y = -pad_nm + (np.arange(ny) + 0.5) * pitch
    profile = np.where((y >= 0.0) & (y < 600.0), n_core, n_clad)
    index = np.tile(profile[:, None], (1, columns))
    return IndexMap(
        index=index,
        x_nm=(np.arange(columns) - columns // 2) * pitch,
        y_nm=y,
        pitch_nm=pitch,
        wavelength_nm=1550.0,
        substrate_index=n_clad,
    )


@pytest.fixture(scope="module")
def slab_modes():
    map_ = _slab_map()
    return map_, solve_modes(map_, 4)


def test_frozen_slab_values_match_oracle():
    n_core = float(materials.lithium_niobate_extraordinary(1550.0))
    n_clad = float(materials.silica(1550.0))
    for mode, expected in enumerate(SLAB_N_EFF):
        live = oracle.slab_n_eff(n_core, n_clad, n_clad, 600.0, 1550.0,
                                 mode=mode)
        assert live == pytest.approx(expected, abs=1e-9)


def test_homogeneous_medium_plane_wave_limit():
    # zero-field edges: the top mode is the lowest sine along x and along y,
    # so n_eff^2 = n^2 - [mu(Nx) + mu(Ny)] / k0^2 with
    # mu(N) = (2 / h^2) (1 - cos(pi / (N + 1)))
    n, map_ = 2.0, _uniform_map(2.0)
    k0 = 2.0 * np.pi / 1550.0
    mu = [2.0 / map_.pitch_nm**2 * (1.0 - np.cos(np.pi / (cells + 1)))
          for cells in map_.index.shape]
    sols = solve_modes(map_, 1)
    assert len(sols) == 1
    assert sols[0].n_eff == pytest.approx(np.sqrt(n**2 - sum(mu) / k0**2),
                                          abs=1e-6)


@pytest.mark.parametrize("n_modes", [8, 16, 32])
@pytest.mark.parametrize("shape, pitch", [
    pytest.param(shape, pitch, id=f"{shape[0]}x{shape[1]}-{pitch:g}nm")
    for shape, pitch in (((3, 3), 400.0), ((7, 7), 150.0), ((7, 7), 200.0),
                         ((11, 11), 150.0), ((7, 15), 100.0))])
def test_uniform_map_repeats_no_mode_more_than_it_repeats(shape, pitch,
                                                          n_modes):
    # a uniform map's spectrum is mu_x(i) + mu_y(j), with mu as above; where
    # the two grids share eigenvalues, as in a square, modes repeat within a
    # mirror half.  No mode may come back more often than it repeats, nor a
    # value that is not a mode, and every copy must come back when the
    # Lanczos basis can hold a whole half, max(2 n_modes + 1, 20) vectors
    rows, columns = shape
    map_ = IndexMap(index=np.full(shape, 2.0),
                    x_nm=np.arange(columns) * pitch,
                    y_nm=np.arange(rows) * pitch, pitch_nm=pitch,
                    wavelength_nm=1550.0, substrate_index=0.0)
    k0 = 2.0 * np.pi / 1550.0
    mu = [2.0 / pitch**2 * (1.0 - np.cos(np.pi * np.arange(1, cells + 1)
                                         / (cells + 1)))
          for cells in shape]
    beta2 = np.sort((k0**2 * 2.0**2 - mu[0][:, None] - mu[1][None, :]).ravel())
    exact = np.sqrt(beta2[beta2 > 0.0][::-1]) / k0
    unmatched = list(exact)
    solved = [mode.n_eff for mode in solve_modes(map_, n_modes)]
    assert solved == sorted(solved, reverse=True)
    for n_eff in solved:
        nearest = int(np.abs(np.array(unmatched) - n_eff).argmin())
        assert abs(unmatched.pop(nearest) - n_eff) <= 1e-10 * n_eff
    if (columns // 2 + 1) * rows <= max(2 * n_modes + 1, 20):
        assert np.allclose(solved, exact[:n_modes], rtol=1e-10, atol=0.0)


def test_slab_matches_transcendental_oracle(slab_modes):
    # the x-uniform slab separates: each eigenvalue is one x eigenvalue (a
    # sine between the zero-field edges) plus one y eigenvalue, and the y
    # part carries the slab dispersion
    map_, sols = slab_modes
    along_x, along_y = oracle.layered_spectrum(
        map_.index[:, 0], map_.index.shape[1], map_.pitch_nm, 1550.0)
    total = along_x[:, None] + along_y[None, :]
    k0 = 2.0 * np.pi / 1550.0
    assert len(sols) == 4
    slab_orders = []
    for solution, value in zip(sols, np.sort(total.ravel())[::-1]):
        expected = np.sqrt(value) / k0
        assert abs(solution.n_eff - expected) <= 1e-10 * expected
        beta2 = (k0 * solution.n_eff) ** 2
        j, m = np.unravel_index(np.abs(total - beta2).argmin(), total.shape)
        assert abs(np.sqrt(beta2 - along_x[j]) / k0 - SLAB_N_EFF[m]) < 1e-3
        slab_orders.append(int(m))
    assert slab_orders == [0, 0, 0, 1]


def test_unit_power_normalization(slab_modes):
    map_, sols = slab_modes
    for solution in sols:
        power = float(np.sum(solution.field**2)) * map_.pitch_nm**2
        assert power == pytest.approx(1.0, abs=1e-9)


def test_modes_sorted_descending_and_bounded(supermodes_20nm):
    n_clad = float(materials.silica(1550.0))
    n_core = float(materials.lithium_niobate_extraordinary(1550.0))
    n_effs = [m.n_eff for m in supermodes_20nm["modes"]]
    assert n_effs == sorted(n_effs, reverse=True)
    for n in n_effs:
        assert n_clad < n < n_core


def test_supermode_parity_and_ordering(supermodes_20nm):
    sym, anti = supermodes_20nm["modes"]
    assert sym.parity == PARITY_SYMMETRIC
    assert anti.parity == PARITY_ANTISYMMETRIC
    assert sym.n_eff > anti.n_eff


def test_supermode_mirror_symmetry(supermodes_20nm):
    for solution in supermodes_20nm["modes"]:
        sign = 1.0 if solution.parity == PARITY_SYMMETRIC else -1.0
        diff = solution.field - sign * solution.field[:, ::-1]
        rel = np.sqrt(np.mean(diff**2)) / np.sqrt(np.mean(solution.field**2))
        assert rel < 1e-6


@pytest.fixture(scope="module")
def coupler_40nm():
    map_ = build_cross_section(reference_geometry(gap_um=2.3), 1550.0,
                               grid_pitch_nm=40.0)
    return map_, solve_modes(map_, 2)


def test_half_domain_matches_full_grid_oracle(coupler_40nm):
    map_, (sym, anti) = coupler_40nm
    full = oracle.full_grid_n_eff(map_.index, map_.pitch_nm, 1550.0)
    assert (sym.parity, anti.parity) == (PARITY_SYMMETRIC, PARITY_ANTISYMMETRIC)
    assert abs(sym.n_eff - full[0]) <= 1e-10 * full[0]
    assert abs(anti.n_eff - full[1]) <= 1e-10 * full[1]


def test_restarting_solve_matches_full_grid_oracle(coupler_40nm, monkeypatch):
    # at ten modes each half's basis holds 21 vectors and takes 67 or 69
    # sweep solves, so it restarts thick, and the Ritz vectors of the pairs
    # kept by then are formed before the restart overwrites the basis
    map_, _ = coupler_40nm
    solves = []  # per half
    real_sweep, real_solve = modes._half_sweep, modes._Sweep.solve

    def spy(*args):
        solves.append(0)
        return real_sweep(*args)

    def counted(sweep, rows):
        solves[-1] += 1
        return real_solve(sweep, rows)

    monkeypatch.setattr(modes, "_half_sweep", spy)
    monkeypatch.setattr(modes._Sweep, "solve", counted)
    solved = solve_modes(map_, 10)
    assert len(solves) == 2 and min(solves) > 21
    n_eff, fields = oracle.full_grid_modes(map_.index, map_.pitch_nm, 1550.0,
                                           10)
    assert len(solved) == 10
    for mode, n, field in zip(solved, n_eff, fields):
        assert abs(mode.n_eff - n) <= 1e-13 * n
        # an antisymmetric field's peak has a mirror twin of equal size, so
        # the oracle's sign is compared whichever way it fell
        error = min(np.abs(mode.field - sign * field).max() for sign in (1, -1))
        assert error <= 1e-9 * np.abs(field).max()


def test_half_domain_fields_mirror_exactly(coupler_40nm):
    map_, (sym, anti) = coupler_40nm
    assert np.array_equal(sym.field, sym.field[:, ::-1])
    assert np.array_equal(anti.field, -anti.field[:, ::-1])
    assert not np.any(anti.field[:, map_.index.shape[1] // 2])
    for solution in (sym, anti):
        assert solution.field.shape == map_.index.shape
        power = float(np.sum(solution.field**2)) * map_.pitch_nm**2
        assert power == pytest.approx(1.0, abs=1e-12)


def test_repeated_solves_are_bit_identical(coupler_40nm):
    map_, first = coupler_40nm
    second = solve_modes(map_, 2)
    for a, b in zip(first, second):
        assert a.n_eff == b.n_eff
        assert np.array_equal(a.field, b.field)


def test_asymmetric_map_with_mirror_plane_rejected():
    asymmetric = _uniform_map()
    asymmetric.index[0, 0] = 2.1
    even_width = _uniform_map()
    even_width.index = even_width.index[:, 1:]
    for map_ in (asymmetric, even_width, _uniform_map(cells=1)):
        with pytest.raises(ValueError, match="mirror-symmetric"):
            solve_modes(map_, 1)


@pytest.mark.parametrize("case", ["slab", "single rib", "coupler", "banded"])
def test_shift_lies_above_every_mode(case):
    if case == "slab":
        map_ = _slab_map()
    elif case == "banded":
        # every row varies across x, so no column dominates the others
        map_ = _banded_map(slice(None))
    else:
        gap = None if case == "single rib" else 2.3
        map_ = build_cross_section(reference_geometry(gap_um=gap), 1550.0,
                                   grid_pitch_nm=40.0)
    sigma = _mode_shift(map_.index, map_.pitch_nm, 1550.0)
    k0 = 2.0 * np.pi / 1550.0
    sols = solve_modes(replace(map_, substrate_index=1.0), 4)
    assert sols
    for solution in sols:
        assert (k0 * solution.n_eff) ** 2 < sigma
    if case == "banded":
        top = np.linalg.eigvalsh(oracle.full_grid_operator(
            map_.index, map_.pitch_nm, 1550.0).toarray())[-1]
        assert top < sigma


def _unique_column_shift(index, pitch, wavelength):
    # the shift over the distinct columns as np.unique(axis=1) finds them
    n_top = max(modes._profile_effective_index(column, pitch, wavelength)
                for column in np.unique(index, axis=1).T)
    return (2.0 * np.pi / wavelength * (n_top + modes.SHIFT_MARGIN)) ** 2


@pytest.mark.parametrize("case", ["coupler", "single rib", "uniform"])
def test_shift_matches_unique_column_reference(case):
    if case == "uniform":
        map_ = _uniform_map()
    else:
        gap = 2.3 if case == "coupler" else None
        map_ = build_cross_section(reference_geometry(gap_um=gap), 1550.0,
                                   grid_pitch_nm=40.0)
    assert _mode_shift(map_.index, map_.pitch_nm, 1550.0) \
        == _unique_column_shift(map_.index, map_.pitch_nm, 1550.0)


def _counting(monkeypatch, name):
    """Replace ``modes.<name>`` by a wrapper that records the keyword
    arguments of each call."""
    calls = []
    real = getattr(modes, name)

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(modes, name, counted)
    return calls


def test_fundamental_solves_the_symmetric_half_only(coupler_40nm,
                                                    monkeypatch):
    # Perron-Frobenius: the top mode is symmetric, so one eigensolve finds
    # it; the eigensolve keeps each pair from the step where it converged,
    # so the two solves agree bit for bit
    map_, (sym, _) = coupler_40nm
    calls = _counting(monkeypatch, "eigsh")
    (fundamental,) = solve_modes(map_, 1)
    assert len(calls) == 1
    assert fundamental.parity == PARITY_SYMMETRIC
    assert fundamental.n_eff == sym.n_eff
    assert np.array_equal(fundamental.field, sym.field)
    solve_modes(map_, 2)
    assert len(calls) == 3


@pytest.mark.parametrize("n_modes", [1, 2, 4])
def test_each_half_is_asked_for_exactly_n_modes(coupler_40nm, n_modes,
                                                monkeypatch):
    # the top n_modes of the two halves together hold the top n_modes
    # overall, so no half needs spare eigenpairs
    map_, _ = coupler_40nm
    calls = _counting(monkeypatch, "eigsh")
    solve_modes(map_, n_modes)
    assert [call["k"] for call in calls] == \
        [n_modes] * (1 if n_modes == 1 else 2)


@pytest.mark.parametrize("run", ["solve", "beat length", "count"])
def test_one_mirror_half_is_resident_at_a_time(coupler_40nm, run,
                                               monkeypatch):
    # each half's sweep is freed before the next half is factorised
    map_, _ = coupler_40nm
    sweeps, alive = [], []
    real = modes._half_sweep

    def spy(*args):
        alive.append([sweep() is not None for sweep in sweeps])
        basis, sweep = real(*args)
        sweeps.append(weakref.ref(sweep))
        return basis, sweep

    monkeypatch.setattr(modes, "_half_sweep", spy)
    if run == "solve":
        solve_modes(map_, 2)
    elif run == "beat length":
        supermode_coupling_length(reference_geometry(gap_um=2.3), 1550.0,
                                  grid_pitch_nm=40.0)
    else:
        modes._modes_above(map_, _mode_shift(map_.index, 40.0, 1550.0))
    assert alive == [[], [False]]


@pytest.mark.skipif(sys.version_info < (3, 11), reason="before CPython 3.11 "
                    "a caller's frame holds a call's arguments until it "
                    "returns, so the sweep outlives eigsh's reference")
def test_ritz_vectors_are_formed_once_with_the_sweep_freed(coupler_40nm):
    # a half peaks at its last Lanczos step with its basis rows and its
    # sweep resident; eigsh frees the sweep before it forms each Ritz
    # vector, once.  On the 40 nm coupler the traced peak was 29.6 arrays
    # of a half's size, and 33.5 with the sweep, the start and a second
    # copy of the vectors resident at the return
    map_, _ = coupler_40nm
    half = map_.index[:, map_.index.shape[1] // 2:].nbytes
    tracemalloc.start()
    try:
        solve_modes(map_, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 31 * half


def test_more_modes_extend_fewer(coupler_40nm):
    map_, _ = coupler_40nm
    runs = [solve_modes(map_, n_modes) for n_modes in (1, 2, 3, 4)]
    assert [mode.parity for mode in runs[-1]] == [
        PARITY_SYMMETRIC, PARITY_ANTISYMMETRIC] * 2
    for fewer, more in zip(runs, runs[1:]):
        assert len(more) == len(fewer) + 1
        for a, b in zip(fewer, more):
            assert a.parity == b.parity
            assert a.n_eff == b.n_eff
            assert np.array_equal(a.field, b.field)
    # the top n_eff of each parity does not move by a bit with the number
    # of eigenpairs its half was asked for
    for run in runs[1:]:
        assert run[0].n_eff == runs[0][0].n_eff
        assert run[1].n_eff == runs[1][1].n_eff


@pytest.mark.parametrize("n_modes", [1, 2, 4])
def test_fields_are_built_only_for_returned_modes(n_modes, monkeypatch):
    # the slab guides four modes; every solve finds more above the cutoff
    # than it returns, unless it returns all four
    calls = _counting(monkeypatch, "_full_field")
    sols = solve_modes(_slab_map(), n_modes)
    assert len(sols) == n_modes
    assert len(calls) == n_modes


def test_single_mode_reference_geometry():
    count = guided_mode_count(reference_geometry(), 1550.0, grid_pitch_nm=20.0)
    assert count == 1


def _layered_map(columns=201, pitch=20.0):
    # x-uniform: the 600 nm LN film between silica and air, 4 um wide
    n_core = float(materials.lithium_niobate_extraordinary(1550.0))
    n_clad = float(materials.silica(1550.0))
    y = -600.0 + (np.arange(90) + 0.5) * pitch
    profile = np.where(y < 0.0, n_clad, np.where(y < 600.0, n_core, 1.0))
    index = np.tile(profile[:, None], (1, columns))
    return IndexMap(
        index=index,
        x_nm=(np.arange(columns) - columns // 2) * pitch,
        y_nm=y,
        pitch_nm=pitch,
        wavelength_nm=1550.0,
        substrate_index=n_clad,
    ), profile


def test_inertia_count_matches_separable_oracle():
    map_, profile = _layered_map()
    k0 = 2.0 * np.pi / 1550.0
    expected = []
    # tau = (k0 n)^2 from above the film index down to below zero
    for n_squared in (4.5, 3.6, 3.4, 3.0, 1.0, 0.0, -2.0):
        tau = k0**2 * n_squared
        expected.append(oracle.layered_count_above(
            profile, map_.index.shape[1], map_.pitch_nm, 1550.0, tau))
        assert modes._modes_above(map_, tau) == expected[-1]
    assert expected[0] == 0 and expected[-1] > 30
    assert expected == sorted(expected)


# a 9 um rib has more modes than the count was once capped at (4)
@pytest.mark.parametrize("top_width_um, count",
                         [(1.0, 1), (2.0, 2), (4.0, 3), (9.0, 7)])
def test_inertia_count_matches_arpack_count(top_width_um, count):
    geometry = WaveguideGeometry(top_width_um=top_width_um)
    assert guided_mode_count(geometry, 1550.0, grid_pitch_nm=40.0) == count
    map_ = build_cross_section(geometry, 1550.0, grid_pitch_nm=40.0)
    slab = modes._profile_effective_index(map_.index[:, 0], 40.0, 1550.0)
    cutoff = max(slab, map_.substrate_index) + modes.CUTOFF_MARGIN
    assert len(solve_modes(replace(map_, substrate_index=cutoff),
                           count + 2)) == count


def test_inertia_count_of_a_dense_symmetric_matrix():
    # the whole matrix as one dense pivot of the sweep, shifted below,
    # inside and above its spectrum; 30 ends the pivot's halving at once,
    # 131 and 300 halve it two and three times, to leaves of at most
    # DEFINITE_ORDER = 64
    rng = np.random.default_rng(3)
    for size in (30, 131, 300):
        dense = rng.normal(size=(size, size))
        dense = dense + dense.T
        values = np.linalg.eigvalsh(dense)
        for tau in (values[0] - 1.0, -3.0, 0.1, 2.5, values[-1] + 1.0):
            shifted = dense - tau * np.eye(size)
            sweep = modes._Sweep([shifted.copy()], 0.0, tau)
            assert sweep.positives == np.count_nonzero(values > tau)
            rhs = rng.normal(size=(1, size))
            expected = np.linalg.solve(shifted, rhs[0])
            # the shift-invert sweep's pivots are negative definite; the
            # unpivoted halving of an indefinite one, which only the count
            # meets, grows its rounding error with the leaves' condition
            rtol = 1e-12 if tau > values[-1] else 1e-7
            assert np.allclose(sweep.solve(rhs)[0], expected, rtol=0.0,
                               atol=rtol * np.abs(expected).max())


def test_indefinite_pivot_is_inverted_to_rounding():
    # a 260 x 260 pivot, as wide as the 10 nm reference rib's symmetric
    # half, shifted into its spectrum: halved without pivoting, its
    # inverse left residuals of 2e-10 to 7e-6
    rng = np.random.default_rng(4)
    size = 260
    dense = rng.normal(size=(size, size))
    dense = dense + dense.T
    values = np.linalg.eigvalsh(dense)
    for tau in (-3.0, 0.1, 2.5):
        shifted = dense - tau * np.eye(size)
        inverse, positives = modes._pivot_inverse(shifted.copy(), tau)
        assert positives == np.count_nonzero(values > tau)
        assert np.abs(inverse @ shifted - np.eye(size)).max() <= 1e-10


@pytest.mark.parametrize("matrix", [
    pytest.param([[0.0, 1.0], [1.0, 0.0]], id="off-diagonal-pivot"),
    pytest.param([[1.0, 0.0], [0.0, 0.0]], id="zero-pivot"),
    pytest.param([[1.0, 0.0], [0.0, np.nan]], id="nan"),
])
def test_unusable_pivots_raise_convergence_error(matrix):
    # two 1 x 1 block rows coupled by the off-diagonal entry: the first a
    # vector pivot, the second a dense one
    (a, b), (_, d) = matrix
    with pytest.raises(ConvergenceError, match="inertia count"):
        modes._Sweep([np.array([a]), np.array([[d]])], b, 0.0)


def _block_tridiagonal(blocks, coupling):
    neighbours = np.eye(len(blocks), k=1) + np.eye(len(blocks), k=-1)
    return block_diag(*[np.diag(block) if block.ndim == 1 else block
                        for block in blocks]) \
        + coupling * np.kron(neighbours, np.eye(len(blocks[0])))


# one letter per block row, v a vector (diagonal) block and d a dense one;
# the last two cases: no dense row, and vector rows between two dense ones
@pytest.mark.parametrize("rows", [tuple(kinds) for kinds in (
    "vvvddvvv", "ddvvv", "vvvdd", "d", "vvvvvdvvvv", "vvvv", "vdvvdv")])
def test_sweep_matches_dense_algebra(rows):
    rng = np.random.default_rng(len(rows))
    n, coupling = 4, 0.7
    blocks = []
    for kind in rows:
        block = rng.normal(size=n if kind == "v" else (n, n))
        blocks.append(block if kind == "v" else block + block.T)
    dense = _block_tridiagonal(blocks, coupling)
    sweep = modes._Sweep(blocks, coupling, 0.0)
    assert sweep.positives == np.count_nonzero(np.linalg.eigvalsh(dense) > 0)
    rhs = rng.normal(size=(len(rows), n))
    expected = np.linalg.solve(dense, rhs.ravel())
    assert np.allclose(sweep.solve(rhs).ravel(), expected, rtol=0.0,
                       atol=1e-10 * np.abs(expected).max())


@pytest.mark.parametrize("parity", [PARITY_SYMMETRIC, PARITY_ANTISYMMETRIC])
@pytest.mark.parametrize("columns", [40, 41])
def test_half_sweep_basis_is_orthonormal(parity, columns):
    # eigsh iterates on coefficients in V: only an orthogonal V makes that
    # a similarity of the operator on the grid; and V must diagonalise the
    # half's x second difference T_x, assembled here with the sqrt(2)
    # centre coupling of the symmetric half
    pitch = 20.0
    half = np.random.default_rng(columns).uniform(1.4, 2.2, (6, columns))
    basis, _ = modes._half_sweep(half, pitch, 2.0 * np.pi / 1550.0, parity,
                                 0.0)
    for product in (basis.T @ basis, basis @ basis.T):
        assert np.allclose(product, np.eye(columns), rtol=0.0, atol=1e-13)
    link = 1.0 / pitch**2
    neighbours = np.full(columns - 1, link)
    if parity == PARITY_SYMMETRIC:
        neighbours[0] *= np.sqrt(2.0)
    along_x = (np.diag(np.full(columns, -2.0 * link))
               + np.diag(neighbours, 1) + np.diag(neighbours, -1))
    tolerance = 1e-13 * np.linalg.norm(along_x, 2)
    spectral = basis.T @ along_x @ basis
    eigenvalues = np.diag(spectral)
    assert np.allclose(spectral, np.diag(eigenvalues), rtol=0.0,
                       atol=tolerance)
    assert np.allclose(np.sort(eigenvalues),
                       eigh_tridiagonal(np.diag(along_x), neighbours)[0],
                       rtol=0.0, atol=tolerance)


@pytest.mark.parametrize("parity", [PARITY_SYMMETRIC, PARITY_ANTISYMMETRIC])
def test_sweep_solves_the_half_operator(coupler_40nm, parity):
    # the sweep solves on coefficients in the x-eigenbasis V, as eigsh
    # applies it; moved there and back it inverts the operator on the grid
    map_, _ = coupler_40nm
    (half,) = [half for p, half in modes._mirror_halves(map_.index)
               if p == parity]
    sigma = _mode_shift(map_.index, map_.pitch_nm, 1550.0)
    operator = oracle.half_map_operator(half, map_.pitch_nm, 1550.0,
                                        parity == PARITY_SYMMETRIC) \
        - sigma * sp.identity(half.size)
    basis, sweep = modes._half_sweep(half, map_.pitch_nm,
                                     2.0 * np.pi / 1550.0, parity, sigma)
    rhs = np.random.default_rng(1).normal(size=half.shape)
    residual = operator @ (sweep.solve(rhs @ basis) @ basis.T).ravel() \
        - rhs.ravel()
    assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(rhs)


def _banded_map(rows):
    # a small mirror-symmetric map whose grid rows ``rows`` change across x
    # and whose other rows are uniform
    rng = np.random.default_rng(7)
    ny, nx, pitch = 12, 13, 100.0
    index = np.repeat(rng.uniform(1.4, 2.2, (ny, 1)), nx, axis=1)
    right = rng.uniform(1.4, 2.2, (ny, nx // 2 + 1))
    varying = np.hstack([right[:, :0:-1], right])
    index[rows] = varying[rows]
    return IndexMap(index=index, x_nm=(np.arange(nx) - nx // 2) * pitch,
                    y_nm=np.arange(ny) * pitch, pitch_nm=pitch,
                    wavelength_nm=1550.0, substrate_index=0.0)


@pytest.mark.parametrize("rows", [
    pytest.param(slice(None), id="every-row"),
    pytest.param(slice(0, 3), id="band-at-row-0"),
    pytest.param(slice(9, 12), id="band-at-last-row"),
    pytest.param([2, 8], id="uniform-rows-inside-band"),
])
def test_banded_maps_match_full_grid_oracle(rows):
    map_ = _banded_map(rows)
    full = oracle.full_grid_n_eff(map_.index, map_.pitch_nm, 1550.0)
    solved = [mode.n_eff for mode in solve_modes(map_, len(full))]
    assert np.allclose(solved, full, rtol=1e-10, atol=0.0)
    values = np.linalg.eigvalsh(oracle.full_grid_operator(
        map_.index, map_.pitch_nm, 1550.0).toarray())
    # below, between and above the eigenvalues, at the first, middle and
    # last gaps
    middle = len(values) // 2
    for tau in (values[0] - 1e-6, (values[0] + values[1]) / 2,
                (values[middle - 1] + values[middle]) / 2,
                (values[-2] + values[-1]) / 2, values[-1] + 1e-6):
        assert modes._modes_above(map_, tau) == np.count_nonzero(values > tau)


def _box_map(rows, columns, pitch):
    # a uniform index box with zero-field edges
    return IndexMap(index=np.full((rows, columns), 2.0),
                    x_nm=np.arange(columns) * pitch,
                    y_nm=np.arange(rows) * pitch, pitch_nm=pitch,
                    wavelength_nm=1550.0, substrate_index=0.0)


@pytest.mark.parametrize("parity", [PARITY_SYMMETRIC, PARITY_ANTISYMMETRIC])
@pytest.mark.parametrize("case", ["coupler", "vertical sidewalls", "banded"])
def test_neighbour_built_blocks_match_direct_products(case, parity,
                                                      monkeypatch):
    # each x-varying row's dense block is the last varying row's plus the
    # columns that changed since it; it must be V^T diag(excess) V, the
    # row's index term less its outer cell's moved to the basis, plus the
    # diagonal of a uniform row
    if case == "banded":
        map_ = _banded_map(slice(None))
    else:
        angle = 90.0 if case == "vertical sidewalls" else 60.0
        map_ = build_cross_section(
            replace(reference_geometry(gap_um=2.3), sidewall_angle_deg=angle),
            1550.0, grid_pitch_nm=40.0)
    (half,) = [half for p, half in modes._mirror_halves(map_.index)
               if p == parity]
    built = []
    real = modes._Sweep

    def recording(blocks, coupling, at):
        # the sweep overwrites its blocks with its pivots' inverses
        built.append({y: block.copy() for y, block in enumerate(blocks)
                      if block.ndim == 2})
        return real(blocks, coupling, at)

    monkeypatch.setattr(modes, "_Sweep", recording)
    pitch, k0 = map_.pitch_nm, 2.0 * np.pi / 1550.0
    sigma = _mode_shift(map_.index, pitch, 1550.0)
    basis, _ = modes._half_sweep(half, pitch, k0, parity, sigma)
    (blocks,) = built
    varying = np.flatnonzero(np.any(half != half[:, -1:], axis=1))
    assert sorted(blocks) == list(varying)
    columns = half.shape[1]
    j = np.arange(columns)
    theta = ((j + 0.5) * np.pi / columns if parity == PARITY_SYMMETRIC
             else (j + 1) * np.pi / (columns + 1))
    along_x = -4.0 / pitch**2 * np.sin(theta / 2.0) ** 2
    for y in varying:
        outer = k0**2 * half[y, -1] ** 2
        direct = basis.T @ np.diag(k0**2 * half[y] ** 2 - outer) @ basis
        excess = blocks[y] - np.diag(along_x + outer - 2.0 / pitch**2
                                     - sigma)
        assert np.abs(excess - direct).max() <= 1e-12 * np.abs(direct).max()


@pytest.mark.parametrize("case, n_modes", [
    ("slab", 4), ("single rib", 4), ("coupler", 2), ("coupler", 4),
    ("banded", 4), ("uniform box", 4)])
def test_each_half_is_shifted_above_its_spectrum(case, n_modes, monkeypatch):
    # the symmetric half at the profile shift, the antisymmetric half just
    # above the symmetric top: neither sweep has a positive pivot, and the
    # modes are those of a solve with both halves at the profile shift
    if case == "slab":
        map_ = _slab_map()
    elif case == "banded":
        map_ = replace(_banded_map(slice(None)), substrate_index=1.0)
    elif case == "uniform box":
        map_ = _box_map(29, 9, 200.0)
    else:
        gap = None if case == "single rib" else 2.3
        map_ = replace(build_cross_section(reference_geometry(gap_um=gap),
                                           1550.0, grid_pitch_nm=40.0),
                       substrate_index=1.0)
    sweeps = []
    real = modes._half_sweep

    def spy(half, pitch, k0, parity, shift):
        basis, sweep = real(half, pitch, k0, parity, shift)
        sweeps.append((parity, shift, sweep.positives))
        return basis, sweep

    monkeypatch.setattr(modes, "_half_sweep", spy)
    solutions = solve_modes(map_, n_modes)
    sigma = _mode_shift(map_.index, map_.pitch_nm, 1550.0)
    assert [(parity, positives) for parity, _, positives in sweeps] == \
        [(PARITY_SYMMETRIC, 0), (PARITY_ANTISYMMETRIC, 0)]
    (_, first, _), (_, second, _) = sweeps
    assert first == sigma and second < sigma
    # a margin of the whole of (sigma - theta) puts the antisymmetric
    # half back at the profile shift
    monkeypatch.setattr(modes, "_TOP_MARGIN", 1.0)
    sweeps.clear()
    reference = solve_modes(map_, n_modes)
    assert [shift for _, shift, _ in sweeps] == [sigma, sigma]
    assert len(solutions) == len(reference) > 0
    for mode, other in zip(solutions, reference):
        assert mode.parity == other.parity
        assert mode.n_eff == pytest.approx(other.n_eff, rel=1e-13, abs=0.0)
        # each field lies about EIGEN_TOLERANCE of its peak from the
        # eigenvector, so two solves agree to twice that: on the banded map
        # the antisymmetric field is 0.99e-10 off at the new shift and
        # 1.41e-10 at the profile shift, against a dense eigh
        np.testing.assert_allclose(mode.field, other.field, rtol=0.0,
                                   atol=2e-10 * np.abs(other.field).max())


def test_beat_length_antisymmetric_half_takes_fewer_steps(monkeypatch):
    # shift-invert Lanczos converges faster the nearer its shift lies to
    # the wanted eigenvalue, and the symmetric top lies nearer the
    # antisymmetric top than the profile bound does
    steps = []
    real = modes.eigsh

    def counted(apply, shape, *, k):
        steps.append(0)

        def step(rows):
            steps[-1] += 1
            return apply(rows)

        return real(step, shape, k=k)

    monkeypatch.setattr(modes, "eigsh", counted)
    supermode_coupling_length(reference_geometry(gap_um=2.3), 1550.0,
                              grid_pitch_nm=40.0)
    symmetric, antisymmetric = steps
    assert antisymmetric < symmetric


def test_symmetric_top_below_the_antisymmetric_one_raises(coupler_40nm,
                                                          monkeypatch):
    # a symmetric top ten times further below the profile shift than it
    # is lies below the antisymmetric top: the antisymmetric half's sweep
    # counts a positive pivot, and no Lanczos step runs on it
    map_, _ = coupler_40nm
    calls = []
    real = modes.eigsh

    def low_top(apply, shape, *, k):
        calls.append(k)
        values, vectors = real(apply, shape, k=k)
        return values / 10.0, vectors

    monkeypatch.setattr(modes, "eigsh", low_top)
    with pytest.raises(ConvergenceError,
                       match=r"shift \d\.\d+e-05 lies below \d+ of "
                             r"the antisymmetric half's eigenvalues"):
        solve_modes(map_, 2)
    assert calls == [2]


@pytest.mark.parametrize("whole_row", [False, True], ids=["cell", "row"])
def test_unusable_maps_raise(whole_row):
    # an infinite or NaN index, in a cell on the mirror plane or across a
    # whole row, is refused before any factorisation, by the solve and the
    # count
    map_ = build_cross_section(reference_geometry(), 1550.0,
                               grid_pitch_nm=40.0)
    for value in (np.inf, np.nan):
        index = map_.index.copy()
        index[5, slice(None) if whole_row
              else map_.index.shape[1] // 2] = value
        unusable = replace(map_, index=index)
        with pytest.raises(InvalidGeometryError, match="non-finite"):
            modes._modes_above(unusable, 1e-5)
        with pytest.raises(InvalidGeometryError, match="non-finite"):
            solve_modes(unusable, 1)


def test_single_rib_fundamental_matches_full_grid_oracle():
    map_ = build_cross_section(reference_geometry(), 1550.0, grid_pitch_nm=40.0)
    (fundamental,) = solve_modes(map_, 1)
    full = oracle.full_grid_n_eff(map_.index, map_.pitch_nm, 1550.0)
    assert fundamental.parity == PARITY_SYMMETRIC
    assert abs(fundamental.n_eff - full[0]) <= 1e-10 * full[0]


def test_coupling_length_synthetic_delta_n():
    # delta_n = 1e-2 at 1.55 um -> half-beat length 77.5 um
    assert coupling_length_from_indices(1.91, 1.90, 1550.0) \
        == pytest.approx(77.5, abs=1e-9)
    with pytest.raises(ValueError):
        coupling_length_from_indices(1.90, 1.91, 1550.0)


@pytest.mark.parametrize("n_symmetric, n_antisymmetric", [
    (np.nan, 1.9), (1.91, np.nan), (np.inf, 1.9), (1.91, -np.inf)],
    ids=["nan-symmetric", "nan-antisymmetric", "inf-symmetric",
         "-inf-antisymmetric"])
def test_coupling_length_refuses_a_non_finite_splitting(n_symmetric,
                                                        n_antisymmetric):
    # a NaN splitting compares False with zero, and once returned NaN
    with pytest.raises(ValueError, match="by a finite amount"):
        coupling_length_from_indices(n_symmetric, n_antisymmetric, 1550.0)


@pytest.mark.parametrize("wavelength_nm", [np.nan, 0.0, -1550.0, np.inf],
                         ids=["nan", "zero", "negative", "inf"])
def test_coupling_length_refuses_a_bad_wavelength(wavelength_nm):
    # a NaN wavelength would give NaN, and -1550 nm a length of -7.75 um
    with pytest.raises(ValueError, match="^wavelength_nm must be finite and "
                                         "positive$"):
        coupling_length_from_indices(1.9, 1.8, wavelength_nm)


def test_reference_coupling_length_in_band(supermodes_20nm):
    sym, anti = supermodes_20nm["modes"]
    length = coupling_length_from_indices(sym.n_eff, anti.n_eff, 1550.0)
    assert 90.0 < length < 180.0


def test_beat_length_asks_each_half_for_its_top_mode(coupler_40nm,
                                                      monkeypatch):
    # the top eigenpair of a half is kept at the same Lanczos step whatever
    # k, so one per half gives the pair of solve_modes(map_, 2) bit for bit
    map_, (sym, anti) = coupler_40nm
    calls = _counting(monkeypatch, "eigsh")
    length = supermode_coupling_length(reference_geometry(gap_um=2.3),
                                       1550.0, grid_pitch_nm=40.0)
    assert [call["k"] for call in calls] == [1, 1]
    assert length == coupling_length_from_indices(sym.n_eff, anti.n_eff,
                                                  1550.0)


def test_beat_length_pairs_the_top_mode_of_each_parity(monkeypatch):
    # a uniform box taller than wide: its second mode, one half-wave across
    # x and two along y, is symmetric too, so the top two modes share a
    # parity; the beat length still pairs the top mode of each
    rows, columns, pitch = 29, 9, 200.0
    map_ = IndexMap(index=np.full((rows, columns), 2.0),
                    x_nm=np.arange(columns) * pitch,
                    y_nm=np.arange(rows) * pitch, pitch_nm=pitch,
                    wavelength_nm=1550.0, substrate_index=0.0)
    assert [mode.parity for mode in solve_modes(map_, 2)] == \
        [PARITY_SYMMETRIC] * 2
    monkeypatch.setattr(modes, "build_cross_section",
                        lambda *args, **kwargs: map_)
    k0 = 2.0 * np.pi / 1550.0
    mu = [2.0 / pitch**2 * (1.0 - np.cos(np.pi * np.arange(1, 3)
                                         / (cells + 1)))
          for cells in (rows, columns)]
    # sine harmonics 1 and 2 across x: the top symmetric and antisymmetric
    sym, anti = np.sqrt(k0**2 * 2.0**2 - mu[0][0] - mu[1]) / k0
    length = supermode_coupling_length(reference_geometry(gap_um=2.3),
                                       1550.0)
    assert length == pytest.approx(
        coupling_length_from_indices(sym, anti, 1550.0), rel=1e-8)


def test_coupling_length_increases_with_gap():
    lc_near = supermode_coupling_length(reference_geometry(gap_um=2.3),
                                        1550.0, grid_pitch_nm=40.0)
    lc_far = supermode_coupling_length(reference_geometry(gap_um=3.5),
                                       1550.0, grid_pitch_nm=40.0)
    assert lc_far > lc_near


def test_decoupled_waveguides_error():
    # fully etched ribs 6 um apart: splitting collapses below tolerance
    geometry = WaveguideGeometry(etch_depth_nm=600.0, gap_um=6.0)
    with pytest.raises(DecoupledWaveguidesError):
        supermode_coupling_length(geometry, 1550.0, grid_pitch_nm=40.0)


def test_a_single_guided_supermode_is_decoupled():
    # 150 nm wide, fully etched 200 nm ribs: only the symmetric supermode
    # (n_eff 1.4686) lies above the 1.444 substrate
    geometry = WaveguideGeometry(film_thickness_nm=200, etch_depth_nm=200,
                                 top_width_um=0.15, gap_um=0.6)
    with pytest.raises(DecoupledWaveguidesError,
                       match="^fewer than two guided supermodes found"):
        supermode_coupling_length(geometry, 1550.0, grid_pitch_nm=25.0)


def test_mode_count_requires_a_single_waveguide():
    with pytest.raises(ValueError,
                       match="^single-waveguide geometry required$"):
        guided_mode_count(reference_geometry(gap_um=2.3), 1550.0)


def test_supermode_requires_gap():
    with pytest.raises(ValueError, match="gap"):
        supermode_coupling_length(reference_geometry(), 1550.0)


def test_convergence_error_carries_residual(monkeypatch):
    # two modes, so the antisymmetric half is solved too: it needs more
    # than one ARPACK iteration, the symmetric half alone does not
    monkeypatch.setattr(modes, "MAX_ITERATIONS", 1)
    with pytest.raises(ConvergenceError) as info:
        solve_modes(_slab_map(), 2)
    assert hasattr(info.value, "residual_norm")


def test_convergence_error_counts_the_converged_eigenpairs(monkeypatch):
    # the antisymmetric half converges one of its two eigenpairs in one
    # iteration; a residual of that one would say nothing of the other
    monkeypatch.setattr(modes, "MAX_ITERATIONS", 1)
    with pytest.raises(ConvergenceError,
                       match="converged 1 of 2 eigenpairs within 1 ") as info:
        solve_modes(_slab_map(), 2)
    assert info.value.residual_norm is None


def test_invalid_mode_count(monkeypatch):
    solve_modes(_uniform_map(), modes.MAX_MODES)

    def never_called(*args, **kwargs):
        raise AssertionError("the eigensolver ran")

    # both bounds are checked before any solve, however large the request
    monkeypatch.setattr(modes, "eigsh", never_called)
    for n_modes in (0, modes.MAX_MODES + 1, 100_000):
        with pytest.raises(ValueError, match="n_modes"):
            solve_modes(_uniform_map(), n_modes)


@pytest.mark.parametrize("n_modes", [2.5, 2.0, True, np.True_])
def test_non_integer_mode_count_refused_before_any_factorisation(
        n_modes, monkeypatch):
    def never_called(*args, **kwargs):
        raise AssertionError("a half was factorised")

    monkeypatch.setattr(modes, "_half_sweep", never_called)
    with pytest.raises(ValueError, match="n_modes must be an integer"):
        solve_modes(_uniform_map(), n_modes)


def test_numpy_integer_mode_count_accepted(coupler_40nm):
    map_, solutions = coupler_40nm
    assert [mode.n_eff for mode in solve_modes(map_, np.int64(2))] == \
        [mode.n_eff for mode in solutions]


def test_grid_convergence_at_default_pitch():
    # halving the default 10 nm pitch moves the fundamental index by < 5e-4
    geometry = reference_geometry()
    n_effs = {}
    for pitch in (10.0, 5.0):
        map_ = build_cross_section(geometry, 1550.0, grid_pitch_nm=pitch)
        n_effs[pitch] = solve_modes(map_, 1)[0].n_eff
    assert abs(n_effs[10.0] - n_effs[5.0]) < 5e-4
    for n in n_effs.values():
        assert 1.92 < n < 1.95


def test_field_peak_positive_sign_convention(slab_modes):
    _, sols = slab_modes
    for solution in sols:
        peak = solution.field.ravel()[np.abs(solution.field).argmax()]
        assert peak > 0


# --- fixed start and restart directions ------------------------------------

@pytest.fixture
def no_random_numbers(monkeypatch):
    """Make every ``numpy.random.default_rng`` call fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("a solver run drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", refuse)


@pytest.mark.parametrize("n_modes", [1, 2, 4])
def test_solves_draw_no_random_numbers(coupler_40nm, n_modes,
                                       no_random_numbers):
    map_, (sym, anti) = coupler_40nm
    solutions = solve_modes(map_, n_modes)
    assert [mode.n_eff for mode in solutions[:2]] == \
        [sym.n_eff, anti.n_eff][:n_modes]


def test_beat_length_and_mode_count_draw_no_random_numbers(
        no_random_numbers):
    length = supermode_coupling_length(reference_geometry(gap_um=2.3),
                                       1550.0, grid_pitch_nm=40.0)
    assert 90.0 < length < 180.0
    assert guided_mode_count(reference_geometry(), 1550.0,
                             grid_pitch_nm=20.0) == 1


@pytest.mark.parametrize("shape, pitch", [((7, 7), 150.0), ((11, 11), 150.0),
                                          ((7, 15), 100.0)])
def test_repeated_modes_draw_no_random_numbers(shape, pitch,
                                               no_random_numbers):
    # at 32 modes the Lanczos basis holds a whole half of each map, and
    # spans an invariant space before it is full, so eigsh takes new
    # directions: once on each of the 28- and 21-cell halves of the 7 x 7
    # map, twice on the 55-cell antisymmetric one of 11 x 11, four times on
    # the 49-cell antisymmetric one of 7 x 15
    test_uniform_map_repeats_no_mode_more_than_it_repeats(shape, pitch, 32)


@pytest.mark.parametrize("shape", [(9, 9), (7, 15), (11, 11)])
def test_restart_directions_are_new_and_leave_the_basis(shape, monkeypatch):
    # each direction eigsh goes on from must differ from the ones before
    # it, and must keep a share of its length after the two passes that
    # orthogonalise it against the basis, or it adds no direction.  The
    # directions come from the 45- and 36-cell halves of 9 x 9 (two and
    # one), the 49-cell one of 7 x 15 and the 55-cell one of 11 x 11; the
    # start's sequence advanced by 21 or 55 terms, Fibonacci numbers, lay
    # in the basis of the 21-cell half of 7 x 7 and of the 55-cell one
    directions = []
    real = modes._weyl

    def spy(count, skip):
        vector = real(count, skip)
        caller = sys._getframe(1)
        # the start (skip 0) comes before there is a basis to leave
        if caller.f_code.co_name == "eigsh" and skip:
            basis = caller.f_locals["basis"][:caller.f_locals["j"] + 1]
            # eigsh orthogonalises the vector in place
            directions.append((vector.copy(), basis.copy()))
        return vector

    monkeypatch.setattr(modes, "_weyl", spy)
    rows, columns = shape
    pitch = 100.0
    map_ = IndexMap(index=np.full((rows, columns), 2.0),
                    x_nm=np.arange(columns) * pitch,
                    y_nm=np.arange(rows) * pitch, pitch_nm=pitch,
                    wavelength_nm=1550.0, substrate_index=0.0)
    solve_modes(map_, 32)
    assert len(directions) >= 2
    for i, (vector, basis) in enumerate(directions):
        assert vector.size in (rows * (columns // 2),
                               rows * (columns // 2 + 1))
        assert not any(other.shape == vector.shape and
                       np.allclose(vector, other)
                       for other, _ in directions[:i])
        left = vector.copy()
        for _ in range(2):
            left -= (basis @ left) @ basis
        assert np.linalg.norm(left) > 1e-8 * np.linalg.norm(vector)


@pytest.mark.parametrize("columns", [109, 111, 177, 179])
def test_fibonacci_half_width_returns_the_modes_of_another_start(
        columns, monkeypatch):
    # the start's coefficients in row r + 1 are those of row r shifted by
    # frac(N a), N the half's columns and a the golden step, which is near
    # 0 or 1 where N is a Fibonacci number: 55 or 89 columns in one half
    rows, pitch = 24, 100.0
    index = np.full((rows, columns), 1.0)
    index[:8] = 1.44
    index[8:10] = 2.21
    index[10:14, columns // 2 - 7:columns // 2 + 8] = 2.21
    map_ = IndexMap(index=index, x_nm=np.arange(columns) * pitch,
                    y_nm=np.arange(rows) * pitch, pitch_nm=pitch,
                    wavelength_nm=1550.0, substrate_index=1.44)
    fixed = solve_modes(map_, 4)
    real = modes._weyl

    def random_start(count, skip):
        if skip:
            return real(count, skip)
        return np.random.default_rng(1).uniform(-1.0, 1.0, count)

    monkeypatch.setattr(modes, "_weyl", random_start)
    other = solve_modes(map_, 4)
    assert len(fixed) == len(other) == 4
    for a, b in zip(fixed, other):
        assert a.parity == b.parity
        assert a.n_eff == pytest.approx(b.n_eff, rel=1e-12, abs=0.0)
        np.testing.assert_allclose(a.field, b.field, rtol=0.0,
                                   atol=1e-7 * np.abs(a.field).max())
