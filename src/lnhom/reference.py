"""Reference values from the experimental characterization of the modeled
directional coupler and photon-pair source.

These constants feed the default devices, the reproduction scenario and
the regression tests.  Values are quoted as published; derived quantities
(the bend offset, the coupling branch) are reconstructed from them.
"""

from __future__ import annotations

from dataclasses import replace

from .coupler import CouplerDevice, length_for_ratio
from .counting import DetectorModel, SourceModel
from .geometry import reference_geometry
from .hom import TwoPhotonState

# classical coupler characterization (1550 nm laser, cutback-style series
# of interaction lengths)
CHARACTERIZATION_WAVELENGTH_NM = 1550.0
COUPLING_LENGTH_UM = 112.86
COUPLING_LENGTH_UNCERTAINTY_UM = 2.82
COUPLING_LENGTH_PORT_FITS_UM = (114.85, 110.87)
INTERACTION_LENGTH_UM = 257.0
INTERACTION_LENGTH_SERIES_UM = (30.0, 580.0)  # span of the fabricated series
SPLITTING_RATIO = 0.546
SPLITTING_RATIO_UNCERTAINTY = 0.038
# the 257 um device sits on the third sin^2 half-period (full transfer and
# back, then part-way again): theta = pi + asin(sqrt(eta))
COUPLING_BRANCH = 2

# waveguide loss from facet-cavity fringes
PROPAGATION_LOSS_DB_PER_CM = 4.85
PROPAGATION_LOSS_UNCERTAINTY_DB_PER_CM = 0.95

# photon-pair source and detection chain
PHOTON_WAVELENGTH_NM = 1542.22
PHOTON_BANDWIDTH_FWHM_NM = 1.8
# off-chip HOM visibility of the source, from the paper's body; PAPER.md
# (the abstract) does not quote it
SOURCE_VISIBILITY = 0.9801
SOURCE_VISIBILITY_UNCERTAINTY = 0.0024
MAX_MEAN_PAIRS_PER_PULSE = 0.01      # operated "below 0.01 pairs per pulse"
REPRODUCTION_MEAN_PAIRS_PER_PULSE = 0.009
DETECTOR_EFFICIENCY = 0.95           # quoted as "> 95 %"
DETECTOR_DEAD_TIME_NS = 70.0

# relative-delay window of the HOM dip scans
DELAY_RANGE_PS = (-8.0, 8.0)

# two-photon interference results
SPLITTER_LIMITED_VISIBILITY = 0.9832
EXPECTED_VISIBILITY = 0.9636
MEASURED_RAW_VISIBILITY = 0.935
MEASURED_RAW_VISIBILITY_UNCERTAINTY = 0.007

GAP_UM = 2.3


def reference_coupler_geometry():
    """Cross-section of the characterized coupler (600 nm film, 150 nm etch,
    1 um top width, 60 deg sidewalls, 2.3 um gap)."""
    return reference_geometry(gap_um=GAP_UM)


def reference_device():
    """Coupler device matching the measured beat length and splitting ratio.

    The supermode splitting is taken wavelength-independent, which already
    reproduces the published 1%-flatness of the order-0 design over
    1540-1560 nm through the chromatic 1/lambda term alone; the bend offset
    is reconstructed so that an interaction length of
    ``INTERACTION_LENGTH_UM`` (257 um) hits the measured ratio on its
    half-period branch.  The interaction length is not part of the device:
    callers pass it to ``splitting_ratio`` and ``transfer_matrix``.
    """
    device = CouplerDevice(
        COUPLING_LENGTH_UM,
        reference_wavelength_nm=CHARACTERIZATION_WAVELENGTH_NM,
    )
    # with no bend offset yet, length_for_ratio gives the whole effective
    # length the branch needs; the offset is its excess over the section
    offset = length_for_ratio(device, SPLITTING_RATIO, COUPLING_BRANCH) \
        - INTERACTION_LENGTH_UM
    return replace(device, bend_offset_um=offset)


def reference_photon_pair():
    """Degenerate signal/idler pair whose zero-delay overlap is the
    measured source visibility."""
    return TwoPhotonState(PHOTON_WAVELENGTH_NM, PHOTON_BANDWIDTH_FWHM_NM,
                          SOURCE_VISIBILITY)


def reference_source(pulses_per_run=SourceModel.pulses_per_run):
    return SourceModel(REPRODUCTION_MEAN_PAIRS_PER_PULSE,
                       pulses_per_run=pulses_per_run)


def reference_detectors():
    return DetectorModel(efficiency=DETECTOR_EFFICIENCY,
                         dead_time_ns=DETECTOR_DEAD_TIME_NS)
