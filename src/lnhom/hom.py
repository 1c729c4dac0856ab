"""Two-photon interference at a beam splitter of arbitrary reflectivity.

Signal and idler are identical Gaussian spectral wavepackets, so their
distinguishability enters through a single overlap number

    I(tau) = V exp(-sigma_omega^2 tau^2),

where sigma_omega is the intensity standard deviation of the angular
frequency spectrum and V = I(0), the source visibility, lumps every
distinguishability that no delay removes (spectral impurity,
polarization and spatial mode mismatch).  The coincidence probability
between the two output arms follows the standard two-photon law for a
splitter with cross-port fraction eta,

    P_cc(tau) = eta^2 + (1-eta)^2 - 2 eta (1-eta) I(tau),

whose normalized dip depth, the visibility, is
2 eta (1-eta) I(0) / (eta^2 + (1-eta)^2).
All delays are picoseconds; optical-stage positions convert through an
explicit single- or double-pass factor.
Coincidence data travel as a ``DelayScan``.  One rule checks each column
of it and of ``fitting.PowerRatioSeries``, and names it by one label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT_NM_PER_PS = 299_792.458
_FWHM_TO_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))

# delay per um of stage travel (1000 nm / c): a retroreflector doubles it
STAGE_SINGLE_PASS_PS_PER_UM = 1000.0 / SPEED_OF_LIGHT_NM_PER_PS
STAGE_DOUBLE_PASS_PS_PER_UM = 2000.0 / SPEED_OF_LIGHT_NM_PER_PS


@dataclass(frozen=True)
class TwoPhotonState:
    """Degenerate photon pair: signal and idler share one Gaussian spectrum
    of intensity-FWHM bandwidth ``bandwidth_fwhm_nm``, and
    ``source_visibility`` in [0, 1] is their zero-delay overlap I(0);
    1 means indistinguishable up to delay."""

    center_wavelength_nm: float
    bandwidth_fwhm_nm: float
    source_visibility: float = 1.0

    def __post_init__(self):
        if not 0 < self.center_wavelength_nm < math.inf:
            raise ValueError("center_wavelength_nm must be finite and positive")
        if not 0 < self.bandwidth_fwhm_nm < math.inf:
            raise ValueError("bandwidth_fwhm_nm must be finite and positive")
        if not 0.0 <= self.source_visibility <= 1.0:
            raise ValueError("source_visibility must lie in [0, 1]")

    @property
    def sigma_omega_rad_per_ps(self):
        """Intensity standard deviation of the angular-frequency spectrum."""
        sigma_lambda = self.bandwidth_fwhm_nm / _FWHM_TO_SIGMA
        return 2.0 * math.pi * SPEED_OF_LIGHT_NM_PER_PS * sigma_lambda \
            / self.center_wavelength_nm**2


def spectral_overlap(state, delay_ps=0.0):
    """Indistinguishability I(tau) of the pair, in [0, 1], at the relative
    arrival delay ``delay_ps`` of signal and idler.

    Closed form for Gaussians.  Accepts scalar or array delay.
    """
    tau = np.asarray(delay_ps, dtype=float)
    overlap = state.source_visibility \
        * np.exp(-(state.sigma_omega_rad_per_ps * tau) ** 2)
    return overlap if np.ndim(delay_ps) else float(overlap)


def check_eta(eta):
    """Raise ``ValueError`` unless the splitter cross fraction eta lies in
    [0, 1]."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")


def hom_visibility_max(eta):
    """Best achievable dip visibility for a splitter with cross fraction eta.

    Computed from q = eta - 1/2 so the eta <-> 1-eta symmetry is exact in
    floating point.
    """
    check_eta(eta)
    q = eta - 0.5
    product = 0.25 - q * q  # eta (1 - eta)
    return 2.0 * product / (1.0 - 2.0 * product)


def combined_visibility(source_visibility, eta):
    """Expected dip visibility when an imperfect source (its own zero-delay
    visibility) meets an unbalanced splitter."""
    if not 0.0 <= source_visibility <= 1.0:
        raise ValueError("source_visibility must lie in [0, 1]")
    return source_visibility * hom_visibility_max(eta)


def _read_only(values, label, axis=None, counts=False):
    """A read-only copy of the column ``values``: integer ``counts`` keep
    their dtype, the rest becomes float64.  Raises ``ValueError``, naming
    the column by ``label``, unless it is bool, integer or float (a cast
    would drop an imaginary part or parse a string), finite, and of the
    shape of ``axis`` or, without one, itself a non-empty, strictly
    increasing 1D axis."""
    values = np.asarray(values)
    if values.dtype.kind not in "biuf":
        raise ValueError(f"{label} must be real numbers, not {values.dtype}")
    values = np.array(values, dtype=values.dtype
                      if counts and values.dtype.kind in "iu" else float)
    values.flags.writeable = False
    if axis is None and (values.ndim != 1 or values.size < 1):
        raise ValueError(f"{label} must be a non-empty 1D axis")
    if axis is not None and values.shape != axis.shape:
        raise ValueError(f"{label} must have the axis shape {axis.shape}, "
                         f"not {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{label} must be finite")
    if axis is None and np.any(np.diff(values) <= 0):
        raise ValueError(f"{label} must be strictly increasing")
    return values


@dataclass(frozen=True)
class DelayScan:
    """Coincidence data over a delay axis.

    ``values`` holds probabilities (normalized or not) or integer counts;
    integer values are raw counts and keep their dtype, any others become
    float64.  ``stage_um`` holds the optical-stage positions, one per
    delay, when the scan has them.  ``_read_only`` checks each column
    under one label ("delays", "coincidence values", "stage positions"),
    the delays as the axis; values must also be non-negative.  It holds
    read-only copies of its arrays, so these rules hold for life.
    """

    delay_ps: np.ndarray
    values: np.ndarray
    stage_um: np.ndarray | None = None

    def __post_init__(self):
        delays = _read_only(self.delay_ps, "delays")
        object.__setattr__(self, "delay_ps", delays)
        object.__setattr__(self, "values", _read_only(
            self.values, "coincidence values", delays, counts=True))
        if self.stage_um is not None:
            object.__setattr__(self, "stage_um", _read_only(
                self.stage_um, "stage positions", delays))
        if np.any(self.values < 0):
            raise ValueError("coincidence values must be non-negative")


def coincidence_curve(state, eta, delays_ps, normalized=True):
    """Two-photon coincidence probability over a delay grid.

    Normalized scans divide by the far-delay baseline eta^2 + (1-eta)^2 so
    the wings sit at 1 and the dip depth equals
    combined_visibility(I(0) at zero relative delay, eta).  The delays are
    checked as ``DelayScan`` checks them, before any cast: strings and
    complex numbers are refused.
    """
    check_eta(eta)
    delays = _read_only(delays_ps, "delays")
    overlap = spectral_overlap(state, delays)
    baseline = eta**2 + (1.0 - eta) ** 2
    values = baseline - 2.0 * eta * (1.0 - eta) * overlap
    if normalized:
        values = values / baseline
    return DelayScan(delay_ps=delays, values=values)
