"""Consistency of the bundled characterization constants with each other
and with the models built from them."""

import math

import pytest

from lnhom import reference as ref
from lnhom.coupler import splitting_ratio
from lnhom.counting import model_visibility
from lnhom.hom import hom_visibility_max

from _oracles import branch_length_scan

# 1 - P_cc(0) / P_cc(inf) from _oracles.pulse_coincidence_probability at
# mu = 0.009 Poissonian, I = 0.9801, eta = 0.546, 95 % efficiency and no
# dark counts, frozen first
PREDICTED_RAW_VISIBILITY = 0.9612382138838335


def test_reference_device_reproduces_the_measured_ratio():
    device = ref.reference_device()
    assert splitting_ratio(device, 1550.0, ref.INTERACTION_LENGTH_UM) \
        == pytest.approx(0.546, abs=1e-9)


def test_bend_offset_sits_on_the_declared_branch():
    device = ref.reference_device()
    kappa = 0.5 * math.pi / ref.COUPLING_LENGTH_UM
    total = branch_length_scan(kappa, 0.0, ref.SPLITTING_RATIO,
                               ref.COUPLING_BRANCH)
    assert device.bend_offset_um \
        == pytest.approx(total - ref.INTERACTION_LENGTH_UM, abs=1e-6)
    assert 25.0 < device.bend_offset_um < 32.0
    effective = ref.INTERACTION_LENGTH_UM + device.bend_offset_um
    assert int(effective // ref.COUPLING_LENGTH_UM) == ref.COUPLING_BRANCH


def test_bend_offset_is_pinned_bit_for_bit():
    # the value every earlier construction of the reference device gave
    assert ref.reference_device().bend_offset_um == 28.459729916782294


def test_photon_pair_carries_the_source_visibility():
    state = ref.reference_photon_pair()
    assert state.center_wavelength_nm == ref.PHOTON_WAVELENGTH_NM
    assert state.bandwidth_fwhm_nm == ref.PHOTON_BANDWIDTH_FWHM_NM
    assert state.source_visibility == ref.SOURCE_VISIBILITY


def test_source_and_detectors_match_the_quoted_operating_point():
    source = ref.reference_source(pulses_per_run=5000)
    assert source.mean_pairs_per_pulse == ref.REPRODUCTION_MEAN_PAIRS_PER_PULSE
    assert source.mean_pairs_per_pulse <= ref.MAX_MEAN_PAIRS_PER_PULSE
    assert source.pulses_per_run == 5000
    detectors = ref.reference_detectors()
    assert detectors.efficiency == 0.95
    assert detectors.dead_time_ns == 70.0


def test_coupler_geometry_uses_the_fabricated_gap():
    geometry = ref.reference_coupler_geometry()
    assert geometry.gap_um == 2.3
    assert geometry.film_thickness_nm == 600.0
    assert geometry.etch_depth_nm == 150.0


def test_quoted_visibility_chain_is_self_consistent():
    assert ref.SPLITTER_LIMITED_VISIBILITY == pytest.approx(
        hom_visibility_max(ref.SPLITTING_RATIO), abs=1e-4)
    assert ref.EXPECTED_VISIBILITY == pytest.approx(
        ref.SOURCE_VISIBILITY * hom_visibility_max(ref.SPLITTING_RATIO),
        abs=1e-4)
    assert ref.MEASURED_RAW_VISIBILITY < ref.EXPECTED_VISIBILITY \
        < ref.SPLITTER_LIMITED_VISIBILITY < 1.0


def test_port_fits_average_to_the_quoted_coupling_length():
    mean = sum(ref.COUPLING_LENGTH_PORT_FITS_UM) / 2.0
    assert mean == pytest.approx(ref.COUPLING_LENGTH_UM, abs=1e-9)
    spread = abs(ref.COUPLING_LENGTH_PORT_FITS_UM[0]
                 - ref.COUPLING_LENGTH_PORT_FITS_UM[1]) / math.sqrt(2.0)
    assert spread == pytest.approx(ref.COUPLING_LENGTH_UNCERTAINTY_UM,
                                   abs=0.01)


def test_interaction_length_lies_inside_the_fabricated_series():
    low, high = ref.INTERACTION_LENGTH_SERIES_UM
    assert low < ref.INTERACTION_LENGTH_UM < high


def test_multi_pair_prediction_at_the_operating_point():
    predicted = model_visibility(
        ref.reference_photon_pair(), ref.SPLITTING_RATIO,
        ref.reference_source(), ref.reference_detectors())
    assert predicted == pytest.approx(PREDICTED_RAW_VISIBILITY, abs=1e-12)
    # multi-pair emission costs a little visibility on top of the
    # splitter-limited expectation
    assert predicted < ref.EXPECTED_VISIBILITY
