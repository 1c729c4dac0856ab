"""Cross-section construction: validation, discretization, symmetry."""

import math

import numpy as np
import pytest

from lnhom import materials
from lnhom.errors import InvalidGeometryError, ResolutionError
from lnhom.geometry import (AIR_INDEX, WaveguideGeometry,
                            build_cross_section, reference_geometry)


def test_defaults_are_the_fabricated_device():
    g = reference_geometry()
    assert (g.film_thickness_nm, g.etch_depth_nm) == (600.0, 150.0)
    assert (g.top_width_um, g.sidewall_angle_deg) == (1.0, 60.0)
    assert g.gap_um is None


@pytest.mark.parametrize(
    "kwargs",
    [
        {"film_thickness_nm": 0.0},
        {"etch_depth_nm": 0.0},
        {"etch_depth_nm": 700.0},
        {"top_width_um": -1.0},
        {"sidewall_angle_deg": 0.0},
        {"sidewall_angle_deg": 95.0},
        {"cladding_thickness_nm": -1.0},
        {"gap_um": 0.5},
        {"gap_um": 1.0},
        {"film_thickness_nm": math.inf},
        {"top_width_um": math.nan},
        {"top_width_um": math.inf},
        {"cladding_thickness_nm": math.nan},
        {"cladding_thickness_nm": math.inf},
        {"gap_um": math.nan},
        {"gap_um": math.inf},
    ],
)
def test_invariant_violations_raise(kwargs):
    with pytest.raises(InvalidGeometryError):
        WaveguideGeometry(**kwargs)


def test_base_width_from_sidewall_angle():
    g = reference_geometry()
    expected = 1.0 + 2.0 * (150.0 / math.tan(math.radians(60.0))) / 1000.0
    assert g.base_width_um == pytest.approx(expected, abs=1e-12)
    assert g.slab_thickness_nm == 450.0


def test_full_etch_limit_single_trapezoid():
    # etch depth equal to the film: no residual slab, LN only inside one rib
    g = WaveguideGeometry(film_thickness_nm=600.0, etch_depth_nm=600.0)
    m = build_cross_section(g, 1550.0, grid_pitch_nm=20.0)
    n_core = float(materials.core_index(1550.0))
    core_cells = m.index == n_core
    assert not np.any(core_cells[m.y_nm < g.slab_thickness_nm])
    # the LN cells are exactly the cell centres inside the trapezoid
    half_width = g.top_width_um * 500.0 + (g.film_thickness_nm - m.y_nm) \
        / math.tan(math.radians(g.sidewall_angle_deg))
    in_band = (m.y_nm >= g.slab_thickness_nm) & (m.y_nm < g.film_thickness_nm)
    rib_cells = in_band[:, None] \
        & (np.abs(m.x_nm[None, :]) <= half_width[:, None])
    assert np.array_equal(core_cells, rib_cells)
    # each row of LN cells is one contiguous run (a single trapezoid)
    for row in core_cells:
        idx = np.nonzero(row)[0]
        if idx.size:
            assert idx[-1] - idx[0] + 1 == idx.size
    # LN fully surrounded by SiO2 below the cladding line
    clad_top = g.film_thickness_nm + g.cladding_thickness_nm
    below = m.y_nm < clad_top
    non_core = m.index[below][~core_cells[below]]
    assert set(np.unique(non_core)) == {float(materials.silica(1550.0))}


def test_two_rib_centerline_separation():
    g = reference_geometry(gap_um=2.3)
    m = build_cross_section(g, 1550.0, grid_pitch_nm=20.0)
    # LN above the slab belongs to the ribs
    rib = (m.index == float(materials.core_index(1550.0))) \
        & (m.y_nm >= g.slab_thickness_nm)[:, None]
    columns = np.any(rib, axis=0)
    left = m.x_nm[columns & (m.x_nm < 0)]
    right = m.x_nm[columns & (m.x_nm > 0)]
    separation = 0.5 * (right.min() + right.max()) \
        - 0.5 * (left.min() + left.max())
    assert abs(separation - 2300.0) <= m.pitch_nm


def test_two_rib_map_mirror_symmetric():
    m = build_cross_section(reference_geometry(gap_um=2.3), 1550.0,
                            grid_pitch_nm=20.0)
    assert np.array_equal(m.index, m.index[:, ::-1])


def test_index_values_are_the_three_materials():
    m = build_cross_section(reference_geometry(), 1550.0, grid_pitch_nm=20.0)
    expected = {
        float(materials.core_index(1550.0)),
        float(materials.silica(1550.0)),
        AIR_INDEX,
    }
    assert set(np.unique(m.index)) == expected
    assert np.all(m.index >= 1.0)


def test_padding_extends_beyond_structure():
    g = reference_geometry(gap_um=2.3)
    m = build_cross_section(g, 1550.0, grid_pitch_nm=20.0, padding_um=2.0)
    outer_nm = g.gap_um * 500.0 + g.base_width_um * 500.0
    assert m.x_nm.min() <= -(outer_nm + 2000.0) + m.pitch_nm
    assert m.x_nm.max() >= outer_nm + 2000.0 - m.pitch_nm
    assert m.y_nm.min() <= -2000.0 + m.pitch_nm
    clad_top = g.film_thickness_nm + g.cladding_thickness_nm
    assert m.y_nm.max() >= clad_top + 2000.0 - m.pitch_nm


def test_wavelength_band_enforced():
    with pytest.raises(ValueError, match="band"):
        build_cross_section(reference_geometry(), 1200.0)
    with pytest.raises(ValueError, match="band"):
        build_cross_section(reference_geometry(), 1750.0)


def test_pitch_limits_enforced():
    with pytest.raises(ResolutionError):
        build_cross_section(reference_geometry(), 1550.0, grid_pitch_nm=60.0)
    # a 100 nm etch at 40 nm pitch is fewer than 3 cells
    shallow = WaveguideGeometry(etch_depth_nm=100.0)
    with pytest.raises(ResolutionError):
        build_cross_section(shallow, 1550.0, grid_pitch_nm=40.0)


@pytest.mark.parametrize("pitch", [0.0, -10.0, math.nan, math.inf])
def test_pitch_must_be_positive_and_finite(pitch):
    with pytest.raises(ResolutionError, match="positive"):
        build_cross_section(reference_geometry(), 1550.0, grid_pitch_nm=pitch)


@pytest.mark.parametrize("padding", [-1.0, math.nan, math.inf])
def test_padding_must_be_non_negative_and_finite(padding):
    with pytest.raises(ValueError, match="padding"):
        build_cross_section(reference_geometry(), 1550.0, grid_pitch_nm=20.0,
                            padding_um=padding)


def test_region_stack_order():
    g = reference_geometry()
    m = build_cross_section(g, 1550.0, grid_pitch_nm=20.0)
    column = m.index[:, 0]  # far from the rib
    # upward: silica substrate, LN slab, silica cladding, air
    n_core = float(materials.core_index(1550.0))
    n_silica = float(materials.silica(1550.0))
    steps = np.nonzero(column[1:] != column[:-1])[0] + 1
    assert [column[0], *column[steps]] == [n_silica, n_core, n_silica,
                                           AIR_INDEX]
    # cell-centre sampling: each material starts at the first cell centre
    # at or above its interface
    interfaces = np.array([0.0, g.slab_thickness_nm,
                           g.film_thickness_nm + g.cladding_thickness_nm])
    assert np.all(m.y_nm[steps - 1] < interfaces)
    assert np.all(interfaces <= m.y_nm[steps])
