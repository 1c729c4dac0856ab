"""Coupled-mode coupler model: transfer matrix, ratios, design helpers."""

import math

import numpy as np
import pytest

import _oracles as oracle
from lnhom import reference as ref
from lnhom.coupler import (CouplerDevice, length_for_ratio, splitting_ratio,
                           transfer_matrix)
from lnhom.errors import UnreachableTargetError
from lnhom.geometry import reference_geometry
from lnhom.modes import supermode_coupling_length


def _device(coupling_length_um=112.86, offset_um=0.0, slope=0.0):
    # ``slope`` is d(kappa)/d(lambda) at 1550 nm, converted to the matching
    # slope of the supermode index splitting
    return CouplerDevice(
        coupling_length_um=coupling_length_um,
        bend_offset_um=offset_um,
        delta_n_slope_per_nm=(slope * 1550.0 + math.pi / (2 * coupling_length_um))
        / (1000 * math.pi),
    )


# --- transfer matrix ------------------------------------------------------

def test_zero_length_is_identity():
    u = transfer_matrix(_device(), 1550.0, 0.0)
    assert np.allclose(u, np.eye(2), atol=1e-15)


def test_full_cross_at_one_coupling_length():
    u = transfer_matrix(_device(), 1550.0, 112.86)
    assert abs(u[0, 1]) ** 2 == pytest.approx(1.0, abs=1e-12)
    assert abs(u[0, 0]) ** 2 == pytest.approx(0.0, abs=1e-12)


def test_half_coupling_length_balances():
    u = transfer_matrix(_device(), 1550.0, 56.43)
    assert abs(u[0, 0]) ** 2 == pytest.approx(0.5, abs=1e-12)
    assert abs(u[0, 1]) ** 2 == pytest.approx(0.5, abs=1e-12)


def test_cross_phase_is_quadrature():
    u = transfer_matrix(_device(), 1550.0, 56.43)
    assert u[0, 1] == pytest.approx(-1j * abs(u[0, 1]), abs=1e-12)
    assert u[0, 0].imag == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("length", [0.0, 10.0, 56.43, 200.0, 1234.5])
@pytest.mark.parametrize("slope", [0.0, -8.98e-6, 2e-5])
def test_unitarity(length, slope):
    u = transfer_matrix(_device(slope=slope), 1545.0, length)
    assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12


def test_matrix_and_closed_form_ratio_agree():
    for length in (0.0, 30.0, 77.0, 160.0, 400.0):
        u = transfer_matrix(_device(), 1550.0, length)
        assert abs(u[0, 1]) ** 2 == pytest.approx(
            splitting_ratio(_device(), 1550.0, length), abs=1e-12)


# --- splitting ratio ------------------------------------------------------

def test_reference_device_hits_measured_ratio():
    device = ref.reference_device()
    assert ref.INTERACTION_LENGTH_UM == 257.0
    assert splitting_ratio(device, 1550.0, ref.INTERACTION_LENGTH_UM) \
        == pytest.approx(0.546, abs=1e-9)


def test_full_beat_period_returns_to_input():
    assert splitting_ratio(_device(), 1550.0, 2 * 112.86) \
        == pytest.approx(0.0, abs=1e-12)


def test_periodicity():
    for length in (13.0, 56.43, 100.0):
        base = splitting_ratio(_device(), 1550.0, length)
        shifted = splitting_ratio(_device(), 1550.0, length + 2 * 112.86)
        assert shifted == pytest.approx(base, abs=1e-12)


def test_bend_offset_adds_to_interaction_length():
    assert splitting_ratio(_device(offset_um=16.43), 1550.0, 40.0) \
        == pytest.approx(splitting_ratio(_device(), 1550.0, 56.43), abs=1e-12)


def test_energy_conservation():
    for length in (0.0, 20.0, 56.43, 300.0):
        u = transfer_matrix(_device(), 1550.0, length)
        assert abs(u[0, 0]) ** 2 + abs(u[0, 1]) ** 2 \
            == pytest.approx(1.0, abs=1e-12)


def test_broadcast_equals_the_scalar_calls_bit_for_bit():
    device = ref.reference_device()
    lengths = np.linspace(*ref.INTERACTION_LENGTH_SERIES_UM, 56)
    wavelengths = np.arange(1460.0, 1640.0 + 0.125, 0.25)
    over_length = splitting_ratio(device, 1550.0, lengths)
    assert over_length.tolist() == [splitting_ratio(device, 1550.0, length)
                                    for length in lengths.tolist()]
    over_wavelength = splitting_ratio(device, wavelengths, 257.0)
    assert over_wavelength.tolist() \
        == [splitting_ratio(device, wavelength, 257.0)
            for wavelength in wavelengths.tolist()]
    grid = splitting_ratio(device, wavelengths, lengths[:, None])
    assert grid.shape == (lengths.size, wavelengths.size)
    assert grid[17].tolist() == splitting_ratio(device, wavelengths,
                                                lengths[17]).tolist()
    assert isinstance(splitting_ratio(device, 1550.0, 257.0), float)
    assert isinstance(device.coupling_phase(1550.0, 257.0), float)


@pytest.mark.parametrize("evaluate", [
    lambda device, length: device.coupling_phase(1550.0, length),
    lambda device, length: splitting_ratio(device, 1550.0, length),
    lambda device, length: transfer_matrix(device, 1550.0, length),
], ids=["coupling_phase", "splitting_ratio", "transfer_matrix"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("as_array", [False, True], ids=["scalar", "array"])
def test_interaction_length_is_validated(evaluate, value, as_array):
    length = np.array([10.0, value, 20.0]) if as_array else value
    with pytest.raises(ValueError, match="interaction_length_um"):
        evaluate(_device(), length)


# --- design helpers -------------------------------------------------------

def test_length_for_full_transfer():
    assert length_for_ratio(_device(), 1.0, 0) \
        == pytest.approx(112.86, abs=1e-9)


def test_length_for_balanced_orders():
    assert length_for_ratio(_device(), 0.5, 0) \
        == pytest.approx(56.43, abs=1e-9)
    assert length_for_ratio(_device(), 0.5, 1) \
        == pytest.approx(3 * 112.86 / 2, abs=1e-9)


@pytest.mark.parametrize("target", [0.12, 0.3, 0.5, 0.546, 0.91])
@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_branch_lengths_match_brute_force_scan(target, order):
    device = _device()
    kappa = device.coupling_rate_per_um(1550.0)
    expected = oracle.branch_length_scan(kappa, 0.0, target, order)
    assert length_for_ratio(device, target, order) \
        == pytest.approx(expected, abs=1e-6)


def test_length_for_ratio_roundtrips():
    for target in (0.1, 0.5, 0.546, 0.99):
        for order in (0, 1, 4):
            length = length_for_ratio(_device(offset_um=5.0), target, order)
            closed = splitting_ratio(_device(offset_um=5.0), 1550.0, length)
            assert closed == pytest.approx(target, abs=1e-9)


@pytest.mark.parametrize("target", [1.5, -0.1, math.nan],
                         ids=["1.5", "-0.1", "nan"])
def test_length_for_ratio_refuses_a_target_outside_the_unit_interval(target):
    with pytest.raises(ValueError, match="^target_eta must lie in \\[0, 1\\]$"):
        length_for_ratio(_device(), target, 0)


def test_unreachable_branch_raises():
    # offset already past the whole first branch
    with pytest.raises(UnreachableTargetError):
        length_for_ratio(_device(offset_um=200.0), 0.5, 0)


@pytest.mark.parametrize("order", [True, False, np.True_, np.False_, 0.5,
                                   -1, math.nan, math.inf],
                         ids=["True", "False", "np.True_", "np.False_", "0.5",
                              "-1", "nan", "inf"])
def test_design_order_refuses_a_bool_or_non_integer(order):
    # True compares equal to 1, and used to design branch 1
    with pytest.raises(ValueError, match="order must be a non-negative "
                                         "integer"):
        length_for_ratio(_device(), 0.5, order)


def test_design_order_takes_integers_of_any_type():
    lengths = [length_for_ratio(_device(), 0.5, order)
               for order in (1, np.int64(1), np.uint8(1), 1.0)]
    assert lengths == [length_for_ratio(_device(), 0.5, 1)] * 4


def test_offset_for_ratio_matches_brute_force():
    # the reference device reconstructs its bend offset from the ratio
    device = ref.reference_device()
    kappa = device.coupling_rate_per_um(1550.0)
    expected = oracle.branch_length_scan(kappa, 0.0, 0.546, 2)
    assert ref.INTERACTION_LENGTH_UM == 257.0
    assert 257.0 + device.bend_offset_um == pytest.approx(expected, abs=1e-6)
    assert splitting_ratio(device, 1550.0, 257.0) \
        == pytest.approx(0.546, abs=1e-9)


# --- dispersion and bandwidth ---------------------------------------------

def test_zero_slope_keeps_ratio_constant():
    eta = splitting_ratio(_device(slope=0.0), np.arange(1460.0, 1641.0, 2.0),
                          56.43)
    assert np.ptp(eta) < 1e-12


def test_order0_flatness_within_one_percent():
    device = CouplerDevice(112.86)
    length = length_for_ratio(device, 0.5, 0)
    eta = splitting_ratio(device, np.linspace(1540.0, 1560.0, 81), length)
    assert np.max(np.abs(eta - 0.5)) < 0.01


def test_higher_order_narrows_bandwidth():
    device = CouplerDevice(112.86)

    def one_percent_bandwidth(order):
        eta = splitting_ratio(device, np.linspace(1460.0, 1640.0, 721),
                              length_for_ratio(device, 0.5, order))
        inside = np.abs(eta - 0.5) < 0.01
        return np.count_nonzero(inside) * 0.25

    assert one_percent_bandwidth(1) < one_percent_bandwidth(0)


def test_deviation_slope_scales_with_order():
    # d(eta)/d(lambda) at the balanced point grows as (2m+1)
    device = CouplerDevice(112.86)
    slopes = []
    for order in (0, 1, 2):
        length = length_for_ratio(device, 0.5, order)
        d = 0.01
        slope = (splitting_ratio(device, 1550.0 + d, length)
                 - splitting_ratio(device, 1550.0 - d, length)) / (2 * d)
        slopes.append(abs(slope))
    assert slopes[1] / slopes[0] == pytest.approx(3.0, rel=1e-3)
    assert slopes[2] / slopes[0] == pytest.approx(5.0, rel=1e-3)


def test_phase_monotone_over_band():
    device = ref.reference_device()
    wavelengths = np.arange(1520.0, 1580.0, 1.0)
    phases = [device.coupling_phase(w, ref.INTERACTION_LENGTH_UM)
              for w in wavelengths]
    diffs = np.diff(phases)
    assert np.all(diffs < 0) or np.all(diffs > 0)


def test_delta_n_slope_calibration():
    # a supplied supermode-splitting slope reproduces the implied phase change
    lam0, lc, length = 1550.0, 112.86, 100.0
    slope_per_nm = 2e-6  # d(delta n)/d(lambda)
    device = CouplerDevice(lc, delta_n_slope_per_nm=slope_per_nm)
    delta_n0 = (lam0 / 1000.0) / (2.0 * lc)

    def splitting_phase(dl):
        delta_n = delta_n0 + slope_per_nm * dl
        return math.pi * delta_n * length / ((lam0 + dl) / 1000.0)

    assert device.coupling_phase(lam0, length) \
        == pytest.approx(splitting_phase(0.0), rel=1e-12)
    # the model is linear in wavelength, so demand first-order agreement only
    for dl in (-1.0, 1.0):
        assert device.coupling_phase(lam0 + dl, length) \
            == pytest.approx(splitting_phase(dl), rel=1e-6)
    step = 1e-3
    model_slope = (device.coupling_phase(lam0 + step, length)
                   - device.coupling_phase(lam0 - step, length)) / (2.0 * step)
    exact_slope = (splitting_phase(step) - splitting_phase(-step)) / (2.0 * step)
    assert model_slope == pytest.approx(exact_slope, rel=1e-6)


@pytest.mark.parametrize("delta_n_slope", [0.0, -3e-6, 2e-6])
@pytest.mark.parametrize("wavelength", [1500.0, 1542.22, 1550.0, 1600.0])
def test_coupling_rate_matches_the_two_step_construction(delta_n_slope, wavelength):
    # kappa0 and the kappa slope derived from the index-splitting slope first,
    # then the linear rate: the rate must match bit for bit
    lc, lam0 = 112.86, 1550.0
    kappa0 = math.pi / (2.0 * lc)
    kappa_slope = (1000.0 * math.pi * delta_n_slope - kappa0) / lam0
    expected = kappa0 + kappa_slope * (np.asarray(wavelength, dtype=float) - lam0)
    device = CouplerDevice(lc, lam0, delta_n_slope)
    assert device.coupling_rate_per_um(wavelength) == float(expected)


def test_consistency_with_mode_solver_phase():
    # device built from the simulated beat length: kappa-based phase equals
    # the supermode-splitting phase formula
    length = supermode_coupling_length(reference_geometry(gap_um=2.3), 1550.0,
                                       grid_pitch_nm=40.0)
    device = CouplerDevice(length)
    delta_n = (1550.0 / 1000.0) / (2.0 * length)
    expected = math.pi * delta_n * 200.0 / (1550.0 / 1000.0)
    assert device.coupling_phase(1550.0, 200.0) \
        == pytest.approx(expected, abs=1e-9)


# --- device validation and splitter setting -------------------------------

def test_device_validation():
    with pytest.raises(ValueError):
        CouplerDevice(coupling_length_um=0.0)
    with pytest.raises(ValueError):
        CouplerDevice(coupling_length_um=100.0, bend_offset_um=-0.5)
    for name in ("coupling_length_um", "reference_wavelength_nm",
                 "delta_n_slope_per_nm", "bend_offset_um"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=name):
                CouplerDevice(**{"coupling_length_um": 100.0, name: value})


def test_coupling_rate_positive_domain():
    # strong negative dispersion drives kappa through zero out of band
    device = _device(slope=-0.0139 / 10.0)
    with pytest.raises(ValueError):
        device.coupling_rate_per_um(1680.0)
    for wavelength in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="supported band"):
            _device(slope=0.01).coupling_rate_per_um(wavelength)

