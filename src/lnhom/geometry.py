"""Rib waveguide cross-sections on a uniform 2D grid.

The simulated stack is an X-cut LN thin film on a SiO2 substrate.  One or
two trapezoidal ribs (wider at the base, sidewall angle measured from the
horizontal) are etched partway into the film; SiO2 cladding covers the
etched surface up to a finite thickness, with air above.  Coordinates are
in nm: x runs across the chip with x = 0 at the symmetry plane, y runs
upward with y = 0 at the film bottom.

Materials are discretised by cell-centre sampling (staircase sidewalls,
no sub-pixel averaging); index values come from the Sellmeier models in
:mod:`lnhom.materials` evaluated at the build wavelength.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import materials
from .errors import InvalidGeometryError, ResolutionError

WAVELENGTH_BAND_NM = (1300.0, 1700.0)
MAX_GRID_PITCH_NM = 50.0
# converged-pitch default of every cross-section, and its background padding
DEFAULT_GRID_PITCH_NM = 10.0
DEFAULT_PADDING_UM = 2.0
AIR_INDEX = 1.0


@dataclass(frozen=True)
class WaveguideGeometry:
    """Cross-section parameters of a single rib or a two-rib coupler.

    The defaults describe the fabricated device.  ``gap_um`` is the
    centre-to-centre distance between the two ribs; leave it ``None`` for a
    single waveguide.
    """

    film_thickness_nm: float = 600.0
    etch_depth_nm: float = 150.0
    top_width_um: float = 1.0
    sidewall_angle_deg: float = 60.0
    cladding_thickness_nm: float = 700.0
    gap_um: float | None = None

    def __post_init__(self):
        if not 0 < self.film_thickness_nm < math.inf:
            raise InvalidGeometryError("film thickness must be finite and "
                                       "positive")
        if not 0 < self.etch_depth_nm <= self.film_thickness_nm:
            raise InvalidGeometryError(
                "etch depth must be positive and at most the film thickness"
            )
        if not 0 < self.top_width_um < math.inf:
            raise InvalidGeometryError("top width must be finite and positive")
        if not 0 < self.sidewall_angle_deg <= 90:
            raise InvalidGeometryError("sidewall angle must be in (0, 90] degrees")
        if not 0 <= self.cladding_thickness_nm < math.inf:
            raise InvalidGeometryError("cladding thickness must be finite and "
                                       "non-negative")
        if self.gap_um is not None \
                and not self.top_width_um < self.gap_um < math.inf:
            raise InvalidGeometryError(
                "gap (centre to centre) must be finite and exceed the top "
                f"width, got {self.gap_um} um vs {self.top_width_um} um"
            )

    @property
    def base_width_um(self):
        """Rib width at the slab, after the sidewall slant."""
        slant_nm = self.etch_depth_nm / math.tan(math.radians(self.sidewall_angle_deg))
        return self.top_width_um + 2 * slant_nm / 1000.0

    @property
    def slab_thickness_nm(self):
        return self.film_thickness_nm - self.etch_depth_nm

    def rib_centers_um(self):
        if self.gap_um is None:
            return (0.0,)
        return (-self.gap_um / 2.0, self.gap_um / 2.0)


def reference_geometry(gap_um=None):
    """The fabricated device cross-section (the :class:`WaveguideGeometry`
    defaults), single or with a rib gap."""
    return WaveguideGeometry(gap_um=gap_um)


@dataclass
class IndexMap:
    """Refractive-index samples on a uniform cell-centred grid of square
    cells ``pitch_nm`` wide; ``index`` is indexed ``[iy, ix]``.

    ``substrate_index`` is the cutoff of the mode solver: a mode with an
    effective index at or below it leaks into the substrate and is
    discarded."""

    index: np.ndarray
    x_nm: np.ndarray
    y_nm: np.ndarray
    pitch_nm: float
    wavelength_nm: float
    substrate_index: float

    @property
    def shape(self):
        return self.index.shape


def _symmetric_x_grid(half_width_nm, pitch_nm):
    # odd cell count centred on x = 0 so x[k] == -x[n-1-k] exactly
    half_cells = int(math.ceil(half_width_nm / pitch_nm))
    n = 2 * half_cells + 1
    return (np.arange(n) - (n - 1) / 2.0) * pitch_nm


def build_cross_section(geometry, wavelength_nm,
                        grid_pitch_nm=DEFAULT_GRID_PITCH_NM,
                        padding_um=DEFAULT_PADDING_UM,
                        polarization=materials.DEFAULT_POLARIZATION):
    """Discretise a geometry into an :class:`IndexMap` at one wavelength.

    The grid covers the structure plus ``padding_um`` of background on every
    side.  Raises :class:`ResolutionError` when the pitch is not positive,
    exceeds ``MAX_GRID_PITCH_NM`` or cannot resolve the etch step with at
    least 3 cells.
    """
    if not 0 < grid_pitch_nm <= MAX_GRID_PITCH_NM:
        raise ResolutionError(
            f"grid pitch {grid_pitch_nm} nm must be positive and at most "
            f"{MAX_GRID_PITCH_NM} nm"
        )
    if not 0 <= padding_um < math.inf:
        raise ValueError(f"padding {padding_um} um must be finite and "
                         "non-negative")
    lo, hi = WAVELENGTH_BAND_NM
    if not lo <= wavelength_nm <= hi:
        raise ValueError(
            f"wavelength {wavelength_nm} nm outside supported band {lo}-{hi} nm"
        )
    if geometry.etch_depth_nm / grid_pitch_nm < 3:
        raise ResolutionError(
            f"pitch {grid_pitch_nm} nm resolves the {geometry.etch_depth_nm} nm "
            "etch step with fewer than 3 cells"
        )

    n_core = float(materials.core_index(wavelength_nm, polarization))
    n_silica = float(materials.silica(wavelength_nm))
    pad_nm = padding_um * 1000.0

    centers_nm = [c * 1000.0 for c in geometry.rib_centers_um()]
    base_half_nm = geometry.base_width_um * 1000.0 / 2.0
    top_half_nm = geometry.top_width_um * 1000.0 / 2.0
    outer_nm = max(abs(c) for c in centers_nm) + base_half_nm

    x = _symmetric_x_grid(outer_nm + pad_nm, grid_pitch_nm)
    film_top = geometry.film_thickness_nm
    slab_top = geometry.slab_thickness_nm
    clad_top = film_top + geometry.cladding_thickness_nm
    y_min = -pad_nm
    y_max = clad_top + pad_nm
    ny = int(round((y_max - y_min) / grid_pitch_nm))
    y = y_min + (np.arange(ny) + 0.5) * grid_pitch_nm

    # silica substrate and cladding, the LN slab, air above the cladding
    index = np.full((ny, x.size), n_silica)
    index[(y >= 0.0) & (y < slab_top), :] = n_core
    index[y >= clad_top, :] = AIR_INDEX

    # trapezoidal ribs: local half-width grows from top_half at the film top
    # to base_half at the slab, staircase-sampled at cell centres
    tan_angle = math.tan(math.radians(geometry.sidewall_angle_deg))
    in_rib_band = ((y >= slab_top) & (y < film_top))[:, None]
    hw = top_half_nm + (film_top - y[:, None]) / tan_angle
    for xc in centers_nm:
        inside = in_rib_band & (np.abs(x[None, :] - xc) <= hw)
        index[inside] = n_core

    return IndexMap(
        index=index,
        x_nm=x,
        y_nm=y,
        pitch_nm=grid_pitch_nm,
        wavelength_nm=wavelength_nm,
        substrate_index=n_silica,
    )
