"""Two-photon interference engine: closed-form overlap against quadrature,
dip geometry, pattern probabilities, and the splitting-ratio visibility
ceiling."""

import dataclasses
import math

import numpy as np
import pytest

from lnhom.fock import arm_occupation_distribution
from lnhom.hom import (
    STAGE_DOUBLE_PASS_PS_PER_UM,
    STAGE_SINGLE_PASS_PS_PER_UM,
    DelayScan,
    TwoPhotonState,
    coincidence_curve,
    combined_visibility,
    hom_visibility_max,
    spectral_overlap,
)

from _oracles import overlap_quadrature, visibility_eq

# visibility_eq(0.546), frozen before wiring up the package route
V_MAX_AT_REFERENCE_SPLITTING = 0.9832140760602261
# the one label each DelayScan field is refused under
SCAN_LABELS = {"delay_ps": "delays", "values": "coincidence values",
               "stage_um": "stage positions"}


# --- spectral overlap vs quadrature oracle --------------------------------

@pytest.mark.parametrize("tau_ps", [-10.0, -2.5, -0.7, 0.0, 0.4, 1.3, 10.0])
def test_overlap_matches_quadrature_for_identical_packets(tau_ps):
    # the quadrature takes the field amplitude factor M, with I(0) = M^2
    for visibility in (1.0, 0.9801):
        state = TwoPhotonState(1550.0, 6.0, visibility)
        expected = overlap_quadrature(1550.0, 6.0, 1550.0, 6.0,
                                      math.sqrt(visibility), tau_ps)
        assert spectral_overlap(state, tau_ps) == pytest.approx(expected,
                                                                abs=1e-6)


def test_identical_packets_overlap_is_unity_at_zero_delay():
    state = TwoPhotonState(1550.0, 6.0)
    assert spectral_overlap(state, 0.0) == 1.0


@pytest.mark.parametrize("visibility", [0.0, 0.64, 0.9801, 1.0])
def test_zero_delay_overlap_is_the_source_visibility(visibility):
    state = TwoPhotonState(1550.0, 6.0, visibility)
    assert spectral_overlap(state, 0.0) == state.source_visibility


def test_overlap_vanishes_far_outside_the_coherence_time():
    state = TwoPhotonState(1550.0, 6.0)
    tau = 10.0 / state.sigma_omega_rad_per_ps  # ten coherence times
    assert spectral_overlap(state, tau) < 1e-12


def test_mode_mismatch_rescales_overlap_quadratically():
    # a field overlap M = 0.8 is a source visibility M^2 = 0.64, and it
    # scales the overlap at every delay
    taus = np.linspace(-1.0, 1.0, 21)
    perfect = spectral_overlap(TwoPhotonState(1550.0, 6.0), taus)
    state = TwoPhotonState(1550.0, 6.0, source_visibility=0.8**2)
    np.testing.assert_allclose(spectral_overlap(state, taus), 0.64 * perfect,
                               rtol=1e-15, atol=0.0)


def test_overlap_accepts_array_delays():
    state = TwoPhotonState(1550.0, 6.0)
    taus = np.array([-1.0, 0.0, 1.0])
    values = spectral_overlap(state, taus)
    assert values.shape == taus.shape
    assert values[1] == pytest.approx(1.0, abs=1e-12)
    assert values[0] == values[2]  # even in delay for degenerate packets


@pytest.mark.parametrize("delays", [
    "1", np.array(["0", "1"]), 1 + 1j, np.array([0.5j, 1 + 1j]),
], ids=["str", "str array", "complex", "complex array"])
def test_overlap_refuses_non_real_delays(delays, recwarn):
    # a float cast would parse the strings, or drop the imaginary part with
    # only a ComplexWarning
    with pytest.raises(ValueError, match="^delays must be real numbers, not "):
        spectral_overlap(TwoPhotonState(1550.0, 6.0), delays)
    assert not recwarn.list


@pytest.mark.parametrize("delays", [
    True, 1, 1.0, np.float32(1.0), np.int8(1),
    np.array([False, True]), np.array([0, 1]), np.array([0.0, 1.0]),
    np.array([0.0, 1.0], dtype=np.float32),
])
def test_overlap_of_real_delays_is_that_of_their_float_cast(delays):
    state = TwoPhotonState(1550.0, 6.0)
    value = spectral_overlap(state, delays)
    if np.ndim(delays):
        expected = spectral_overlap(state, np.asarray(delays, dtype=float))
        assert value.dtype == np.float64
        assert np.array_equal(value, expected)
    else:
        assert type(value) is float
        assert value == spectral_overlap(state, float(delays))


# --- visibility ceiling of an unbalanced splitter -------------------------

def test_visibility_ceiling_is_unity_only_at_balance():
    assert hom_visibility_max(0.5) == 1.0
    assert hom_visibility_max(0.49) < 1.0
    assert hom_visibility_max(0.51) < 1.0


def test_visibility_ceiling_vanishes_at_full_bar_or_cross():
    assert hom_visibility_max(0.0) == 0.0
    assert hom_visibility_max(1.0) == 0.0


def test_visibility_ceiling_reference_value():
    assert hom_visibility_max(0.546) == pytest.approx(
        V_MAX_AT_REFERENCE_SPLITTING, abs=1e-12
    )
    assert hom_visibility_max(0.546) == pytest.approx(
        float(visibility_eq(0.546)), rel=1e-14
    )


@pytest.mark.parametrize("eta", [0.5, 0.52, 0.546, 0.6, 0.75, 0.25, 0.12, 0.9])
def test_visibility_ceiling_symmetry_is_bit_exact(eta):
    assert hom_visibility_max(eta) == hom_visibility_max(1.0 - eta)


def test_visibility_ceiling_symmetry_holds_across_the_range():
    etas = np.linspace(0.01, 0.99, 197)
    for eta in etas:
        assert hom_visibility_max(eta) == pytest.approx(
            hom_visibility_max(1.0 - eta), rel=5e-15
        )


def test_visibility_ceiling_increases_toward_balance():
    etas = np.linspace(0.0, 0.5, 101)
    values = [hom_visibility_max(e) for e in etas]
    assert all(b > a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("eta", [-0.1, 1.1])
def test_visibility_ceiling_rejects_out_of_range(eta):
    with pytest.raises(ValueError):
        hom_visibility_max(eta)


def test_combined_visibility_passes_source_through_at_balance():
    assert combined_visibility(0.93, 0.5) == 0.93


def test_combined_visibility_decreases_with_either_imperfection():
    assert combined_visibility(0.98, 0.546) < combined_visibility(1.0, 0.546)
    assert combined_visibility(0.98, 0.546) < combined_visibility(0.98, 0.5)


def test_combined_visibility_rejects_bad_source_value():
    with pytest.raises(ValueError):
        combined_visibility(1.2, 0.5)


# --- two-photon output patterns -------------------------------------------

def _pair_patterns(eta, overlap):
    """One-pair output patterns from the Fock enumeration: (both in arm 1,
    both in arm 2, coincidence)."""
    arms = arm_occupation_distribution(1, overlap, eta)
    return arms.get((2, 0), 0.0), arms.get((0, 2), 0.0), arms.get((1, 1), 0.0)


@pytest.mark.parametrize("eta", [0.0, 0.3, 0.5, 0.546, 1.0])
@pytest.mark.parametrize("overlap", [0.0, 0.5, 1.0])
def test_pair_patterns_form_a_distribution(eta, overlap):
    probabilities = arm_occupation_distribution(1, overlap, eta).values()
    assert all(p >= 0.0 for p in probabilities)
    assert sum(probabilities) == pytest.approx(1.0, abs=1e-12)


def test_pair_patterns_balanced_indistinguishable_never_coincide():
    both1, both2, coincidence = _pair_patterns(0.5, 1.0)
    assert coincidence == pytest.approx(0.0, abs=1e-15)
    assert both1 == pytest.approx(0.5, abs=1e-12)
    assert both2 == pytest.approx(0.5, abs=1e-12)


def test_pair_patterns_bunching_grows_with_overlap():
    low = _pair_patterns(0.546, 0.2)
    high = _pair_patterns(0.546, 0.9)
    assert high[0] > low[0]
    assert high[2] < low[2]


def test_pair_patterns_reject_out_of_range_arguments():
    with pytest.raises(ValueError):
        arm_occupation_distribution(1, 0.5, 1.5)
    with pytest.raises(ValueError):
        arm_occupation_distribution(1, -0.1, 0.5)


# --- coincidence curves ----------------------------------------------------

def test_balanced_dip_reaches_zero_for_perfect_packets():
    state = TwoPhotonState(1550.0, 6.0)
    scan = coincidence_curve(state, 0.5, [-5.0, 0.0, 5.0])
    assert scan.values[1] == pytest.approx(0.0, abs=1e-12)


def test_normalized_wings_sit_at_unity():
    state = TwoPhotonState(1550.0, 6.0)
    scan = coincidence_curve(state, 0.546, [-50.0, 50.0])
    np.testing.assert_allclose(scan.values, 1.0, rtol=0.0, atol=1e-9)


def test_normalized_dip_depth_equals_combined_visibility():
    state = TwoPhotonState(1550.0, 6.0, 0.98)
    delays = np.linspace(-20.0, 20.0, 801)
    scan = coincidence_curve(state, 0.546, delays)
    depth = 1.0 - scan.values.min()
    assert depth == pytest.approx(combined_visibility(0.98, 0.546), abs=1e-9)


def test_unnormalized_baseline_and_floor():
    state = TwoPhotonState(1550.0, 6.0)
    eta = 0.3
    scan = coincidence_curve(state, eta, [-50.0, 0.0, 50.0], normalized=False)
    baseline = eta**2 + (1.0 - eta) ** 2
    assert scan.values[0] == pytest.approx(baseline, abs=1e-9)
    assert scan.values[-1] == pytest.approx(baseline, abs=1e-9)
    # floor of the probability dip is (1 - 2 eta)^2, never negative
    assert scan.values[1] == pytest.approx((1.0 - 2.0 * eta) ** 2, abs=1e-12)
    assert np.all(scan.values >= 0.0)


def test_coincidence_curve_rejects_bad_splitting():
    state = TwoPhotonState(1550.0, 6.0)
    with pytest.raises(ValueError):
        coincidence_curve(state, 1.2, [0.0, 1.0])


# --- delay-scan container --------------------------------------------------

def test_delay_scan_requires_increasing_delays():
    with pytest.raises(ValueError):
        DelayScan(delay_ps=[0.0, 0.0, 1.0], values=[1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        DelayScan(delay_ps=[1.0, 0.0], values=[1.0, 1.0])


def test_delay_scan_requires_matching_shapes_and_nonnegative_values():
    with pytest.raises(ValueError):
        DelayScan(delay_ps=[0.0, 1.0], values=[1.0])
    with pytest.raises(ValueError):
        DelayScan(delay_ps=[0.0, 1.0], values=[1.0, -0.2])
    with pytest.raises(ValueError):
        DelayScan(delay_ps=[], values=[])
    # nor does a negative count reach a built scan through the caller's array
    counts = np.array([5, 6])
    scan = DelayScan(delay_ps=[0.0, 1.0], values=counts)
    counts[1] = -5
    assert scan.values.tolist() == [5, 6]


def test_delay_scan_requires_one_stage_position_per_delay():
    with pytest.raises(ValueError, match="stage"):
        DelayScan([0.0, 1.0, 2.0], [5, 6, 7], stage_um=[0.0, 1.0])
    scan = DelayScan([0.0, 1.0], [5, 6], stage_um=[0, 1])
    assert scan.stage_um.dtype == float


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field, message", [
    ("delay_ps", "delays must be finite"),
    ("values", "coincidence values must be finite"),
    ("stage_um", "stage positions must be finite"),
])
def test_delay_scan_refuses_non_finite_entries(field, message, bad):
    columns = {"delay_ps": np.array([0.0, 1.0, 2.0]),
               "values": np.array([5.0, 6.0, 7.0]),
               "stage_um": np.array([0.0, 150.0, 300.0])}
    # nor does a built scan take one: not written into its arrays, not by
    # rebinding a field, and not through the caller's arrays
    scan = DelayScan(**columns)
    with pytest.raises(ValueError, match="read-only"):
        getattr(scan, field)[1] = bad
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(scan, field, np.full(3, bad))
    columns[field][1] = bad
    assert np.all(np.isfinite(getattr(scan, field)))
    with pytest.raises(ValueError, match=f"^{message}$"):
        DelayScan(**columns)


@pytest.mark.parametrize("kind", ["complex", "str", "object"])
@pytest.mark.parametrize("field", ["delay_ps", "values", "stage_um"])
def test_delay_scan_refuses_non_real_columns(field, kind):
    # refused before any cast, which would drop the imaginary part or
    # parse the strings, with the column named by its one label
    columns = {"delay_ps": np.array([0.0, 1.0, 2.0]),
               "values": np.array([5.0, 6.0, 7.0]),
               "stage_um": np.array([0.0, 150.0, 300.0])}
    columns[field] = {"complex": columns[field] + 0.5j,
                      "str": columns[field].astype(str),
                      "object": columns[field].astype(object)}[kind]
    with pytest.raises(ValueError,
                       match=f"^{SCAN_LABELS[field]} must be real numbers"):
        DelayScan(**columns)


def test_delay_scan_keeps_bool_integer_and_float_columns():
    # integer values are counts and keep their dtype; the rest is float64
    scan = DelayScan(delay_ps=np.array([0, 1, 2], dtype=np.int32),
                     values=np.array([5, 6, 7], dtype=np.uint16),
                     stage_um=np.array([False, True, True]))
    assert scan.values.dtype == np.uint16
    assert scan.delay_ps.dtype == scan.stage_um.dtype == np.float64
    flags = DelayScan(delay_ps=[0.0, 1.0], values=np.array([True, False]))
    assert flags.values.dtype == np.float64
    assert flags.values.tolist() == [1.0, 0.0]


def test_coincidence_curve_refuses_a_nan_delay():
    state = TwoPhotonState(1550.0, 6.0)
    with pytest.raises(ValueError, match="delays must be finite"):
        coincidence_curve(state, 0.5, [0.0, math.nan])


@pytest.mark.parametrize("delays", [
    np.array(["-1", "0", "1"]),
    np.array([-1.0, 0.0, 1.0]) + 0.5j,
], ids=["str", "complex"])
def test_coincidence_curve_refuses_non_real_delays(delays, recwarn):
    # a float cast would parse the strings, or drop the imaginary part with
    # only a ComplexWarning
    state = TwoPhotonState(1550.0, 6.0)
    with pytest.raises(ValueError, match="^delays must be real numbers"):
        coincidence_curve(state, 0.5, delays)
    assert not recwarn.list


# every way a column can break the one column rule; the others stay valid
@pytest.mark.parametrize("field, column, rule", [
    ("delay_ps", 0.0, "must be a non-empty 1D axis"),
    ("delay_ps", [], "must be a non-empty 1D axis"),
    ("delay_ps", [[0.0, 1.0, 2.0]], "must be a non-empty 1D axis"),
    ("delay_ps", [0.0, 2.0, 1.0], "must be strictly increasing"),
    ("delay_ps", [0.0, 0.0, 1.0], "must be strictly increasing"),
    ("delay_ps", [0.0, math.nan, 2.0], "must be finite"),
    ("delay_ps", ["0", "1", "2"], "must be real numbers"),
    ("values", [5.0, 6.0], "must have the axis shape"),
    ("values", [[5.0, 6.0, 7.0]], "must have the axis shape"),
    ("values", [5.0, math.inf, 7.0], "must be finite"),
    ("values", [5.0, 6.0, -7.0], "must be non-negative"),
    ("values", [5j, 6j, 7j], "must be real numbers"),
    ("stage_um", [0.0, 150.0], "must have the axis shape"),
    ("stage_um", [0.0, -math.inf, 300.0], "must be finite"),
    ("stage_um", [None, None, None], "must be real numbers"),
])
def test_every_refusal_of_a_scan_column_names_its_one_label(field, column,
                                                            rule):
    columns = {"delay_ps": [0.0, 1.0, 2.0], "values": [5, 6, 7],
               "stage_um": [0.0, 150.0, 300.0], field: column}
    with pytest.raises(ValueError, match=f"^{SCAN_LABELS[field]} {rule}"):
        DelayScan(**columns)


def test_stage_conversion_constants_follow_from_light_speed():
    # bit-exact, so stage positions written to counts.csv never move
    assert STAGE_SINGLE_PASS_PS_PER_UM == 1.0 / 299.792458
    assert STAGE_DOUBLE_PASS_PS_PER_UM == 2.0 / 299.792458


# --- photon-pair bookkeeping -----------------------------------------------

def test_coherence_time_matches_the_bandwidth():
    # the coherence time is 1 / sigma_omega
    state = TwoPhotonState(1550.0, 6.0)
    sigma_lambda = 6.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    sigma_omega = 2.0 * math.pi * 299_792.458 * sigma_lambda / 1550.0**2
    assert state.sigma_omega_rad_per_ps == pytest.approx(sigma_omega, rel=1e-12)


def test_wavepacket_and_state_validation():
    with pytest.raises(ValueError, match="center"):
        TwoPhotonState(-1550.0, 6.0)
    with pytest.raises(ValueError, match="bandwidth"):
        TwoPhotonState(1550.0, 0.0)
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match="center"):
            TwoPhotonState(value, 6.0)
        with pytest.raises(ValueError, match="bandwidth"):
            TwoPhotonState(1550.0, value)
    for visibility in (1.2, -0.1):
        with pytest.raises(ValueError, match="source_visibility"):
            TwoPhotonState(1550.0, 6.0, visibility)
