"""Finite-difference mode solver against analytic oracles and invariants."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import block_diag

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
          for cells in map_.shape]
    sols = solve_modes(map_, 1)
    assert len(sols) == 1
    assert sols[0].n_eff == pytest.approx(np.sqrt(n**2 - sum(mu) / k0**2),
                                          abs=1e-6)


def test_slab_matches_transcendental_oracle(slab_modes):
    # the x-uniform slab separates: each eigenvalue is one x eigenvalue (a
    # sine between the zero-field edges) plus one y eigenvalue, and the y
    # part carries the slab dispersion
    map_, sols = slab_modes
    along_x, along_y = oracle.layered_spectrum(map_.index[:, 0], map_.shape[1],
                                               map_.pitch_nm, 1550.0)
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


def test_half_domain_fields_mirror_exactly(coupler_40nm):
    map_, (sym, anti) = coupler_40nm
    assert np.array_equal(sym.field, sym.field[:, ::-1])
    assert np.array_equal(anti.field, -anti.field[:, ::-1])
    assert not np.any(anti.field[:, map_.shape[1] // 2])
    for solution in (sym, anti):
        assert solution.field.shape == map_.shape
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


@pytest.mark.parametrize("case", ["slab", "single rib", "coupler"])
def test_shift_lies_above_every_mode(case):
    if case == "slab":
        map_ = _slab_map()
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
    """Replace ``modes.<name>`` by a wrapper that counts its calls."""
    calls = []
    real = getattr(modes, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(modes, name, counted)
    return calls


def test_fundamental_solves_the_symmetric_half_only(coupler_40nm,
                                                    monkeypatch):
    # Perron-Frobenius: the top mode is symmetric, so one eigensolve finds
    # it; ARPACK converges one more eigenpair for two modes, so the two
    # solves agree to rounding, not bit for bit
    map_, (sym, _) = coupler_40nm
    calls = _counting(monkeypatch, "eigsh")
    (fundamental,) = solve_modes(map_, 1)
    assert len(calls) == 1
    assert fundamental.parity == PARITY_SYMMETRIC
    assert fundamental.n_eff == pytest.approx(sym.n_eff, rel=1e-12)
    assert np.allclose(fundamental.field, sym.field, rtol=0.0,
                       atol=1e-12 * np.abs(sym.field).max())
    solve_modes(map_, 2)
    assert len(calls) == 3


@pytest.mark.parametrize("n_modes", [1, 2, 4])
def test_each_half_is_asked_for_exactly_n_modes(coupler_40nm, n_modes,
                                                monkeypatch):
    # the top n_modes of the two halves together hold the top n_modes
    # overall, so no half needs spare eigenpairs
    map_, _ = coupler_40nm
    asked = []
    real = modes.eigsh

    def spy(*args, **kwargs):
        asked.append(kwargs["k"])
        return real(*args, **kwargs)

    monkeypatch.setattr(modes, "eigsh", spy)
    solve_modes(map_, n_modes)
    assert asked == [n_modes] * (1 if n_modes == 1 else 2)


def test_more_modes_extend_fewer(coupler_40nm):
    map_, _ = coupler_40nm
    runs = [solve_modes(map_, n_modes) for n_modes in (1, 2, 3, 4)]
    assert [mode.parity for mode in runs[-1]] == [
        PARITY_SYMMETRIC, PARITY_ANTISYMMETRIC] * 2
    for fewer, more in zip(runs, runs[1:]):
        assert len(more) == len(fewer) + 1
        for a, b in zip(fewer, more):
            assert a.parity == b.parity
            assert a.n_eff == pytest.approx(b.n_eff, rel=1e-12)
            assert np.allclose(a.field, b.field, rtol=0.0,
                               atol=1e-12 * np.abs(b.field).max())
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
            profile, map_.shape[1], map_.pitch_nm, 1550.0, tau))
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
    # the whole matrix as one dense pivot of the sweep
    rng = np.random.default_rng(3)
    dense = rng.normal(size=(30, 30))
    dense = dense + dense.T
    values = np.linalg.eigvalsh(dense)
    no_rows = np.empty((0, 30))
    for tau in (-3.0, 0.1, 2.5):
        band = (dense - tau * np.eye(30))[None]
        assert modes._Sweep(no_rows, band, no_rows, 0.0, tau).positives \
            == np.count_nonzero(values > tau)


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
        modes._Sweep(np.array([[a]]), np.array([[[d]]]), np.empty((0, 1)),
                     b, 0.0)


def _block_tridiagonal(top, band, bottom, coupling):
    blocks = [np.diag(row) for row in top] + list(band) \
        + [np.diag(row) for row in bottom]
    neighbours = np.eye(len(blocks), k=1) + np.eye(len(blocks), k=-1)
    return block_diag(*blocks) \
        + coupling * np.kron(neighbours, np.eye(len(band[0])))


# (vector rows above the band, band rows, vector rows below it)
@pytest.mark.parametrize("rows", [(3, 2, 3), (0, 2, 3), (3, 2, 0), (0, 1, 0),
                                  (5, 1, 4)])
def test_sweep_matches_dense_algebra(rows):
    rng = np.random.default_rng(sum(rows))
    n, coupling = 4, 0.7
    top = rng.normal(size=(rows[0], n))
    band = rng.normal(size=(rows[1], n, n))
    band = band + band.transpose(0, 2, 1)
    bottom = rng.normal(size=(rows[2], n))
    dense = _block_tridiagonal(top, band, bottom, coupling)
    sweep = modes._Sweep(top, band.copy(), bottom, coupling, 0.0)
    assert sweep.positives == np.count_nonzero(np.linalg.eigvalsh(dense) > 0)
    rhs = rng.normal(size=(sum(rows), n))
    expected = np.linalg.solve(dense, rhs.ravel())
    assert np.allclose(sweep.solve(rhs).ravel(), expected, rtol=0.0,
                       atol=1e-10 * np.abs(expected).max())


@pytest.mark.parametrize("parity", [PARITY_SYMMETRIC, PARITY_ANTISYMMETRIC])
@pytest.mark.parametrize("columns", [40, 41])
def test_half_sweep_basis_is_orthonormal(parity, columns):
    # eigsh iterates on coefficients in V: only an orthogonal V makes that
    # a similarity of the operator on the grid
    half = np.random.default_rng(columns).uniform(1.4, 2.2, (6, columns))
    basis, _ = modes._half_sweep(half, 20.0, 2.0 * np.pi / 1550.0, parity,
                                 0.0)
    for product in (basis.T @ basis, basis @ basis.T):
        assert np.allclose(product, np.eye(columns), rtol=0.0, atol=1e-13)


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


@pytest.mark.parametrize("whole_row", [False, True], ids=["cell", "row"])
def test_unusable_maps_raise(whole_row):
    # an infinite or NaN index, in a cell on the mirror plane or across a
    # whole row, is refused before any factorisation, by the solve and the
    # count
    map_ = build_cross_section(reference_geometry(), 1550.0,
                               grid_pitch_nm=40.0)
    for value in (np.inf, np.nan):
        index = map_.index.copy()
        index[5, slice(None) if whole_row else map_.shape[1] // 2] = value
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


def test_reference_coupling_length_in_band(supermodes_20nm):
    sym, anti = supermodes_20nm["modes"]
    length = coupling_length_from_indices(sym.n_eff, anti.n_eff, 1550.0)
    assert 90.0 < length < 180.0


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
