"""Refractive-index models for the LNOI material stack.

Dispersion is evaluated from Sellmeier expansions of the form

    n^2(lam) = 1 + sum_i  B_i lam^2 / (lam^2 - C_i),    lam in um.

Coefficient provenance:

* congruent lithium niobate (ordinary and extraordinary rays):
  Zelmon, Small and Jundt, J. Opt. Soc. Am. B 14, 3319 (1997),
  fitted over 0.4-5 um at room temperature.
* fused silica: Malitson, J. Opt. Soc. Am. 55, 1205 (1965),
  fitted over 0.21-3.71 um.

For an X-cut film the TE-like mode (electric field in the chip plane,
along the optic axis) sees the extraordinary index; the TM-like mode
sees the ordinary index.
"""

from __future__ import annotations

import numpy as np

# (B_i, C_i) pairs, C_i in um^2
LN_EXTRAORDINARY_SELLMEIER = (
    (2.9804, 0.02047),
    (0.5981, 0.0666),
    (8.9543, 416.08),
)
LN_ORDINARY_SELLMEIER = (
    (2.6734, 0.01764),
    (1.2290, 0.05914),
    (12.614, 474.60),
)
SILICA_SELLMEIER = (
    (0.6961663, 0.0684043**2),
    (0.4079426, 0.1162414**2),
    (0.8974794, 9.896161**2),
)
# polarization families of an X-cut film, the TE-like one by default
POLARIZATIONS = ("te", "tm")
DEFAULT_POLARIZATION = "te"


def _sellmeier(wavelength_nm, terms):
    lam_sq = (np.asarray(wavelength_nm, dtype=float) / 1000.0) ** 2
    n_sq = 1.0 + sum(b * lam_sq / (lam_sq - c) for b, c in terms)
    return np.sqrt(n_sq)


def lithium_niobate_extraordinary(wavelength_nm):
    """Extraordinary index of congruent LN (TE-like mode in X-cut)."""
    return _sellmeier(wavelength_nm, LN_EXTRAORDINARY_SELLMEIER)


def lithium_niobate_ordinary(wavelength_nm):
    """Ordinary index of congruent LN (TM-like mode in X-cut)."""
    return _sellmeier(wavelength_nm, LN_ORDINARY_SELLMEIER)


def silica(wavelength_nm):
    """Index of fused silica (substrate and cladding)."""
    return _sellmeier(wavelength_nm, SILICA_SELLMEIER)


def core_index(wavelength_nm, polarization=DEFAULT_POLARIZATION):
    """LN index seen by the chosen polarization family in an X-cut film."""
    if polarization == "te":
        return lithium_niobate_extraordinary(wavelength_nm)
    if polarization == "tm":
        return lithium_niobate_ordinary(wavelength_nm)
    raise ValueError(f"unknown polarization {polarization!r}, expected 'te' or 'tm'")
