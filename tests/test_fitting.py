"""Curve fitting and loss extraction: synthetic roundtrips, uncertainty
calibration, and the facet-cavity contrast inversion."""

import dataclasses
import math

import numpy as np
import pytest

from lnhom import fitting
from lnhom.errors import (ConvergenceError, NegativeLossWarning,
                          UnidentifiableDataError)
from lnhom.fitting import (
    PowerRatioSeries,
    coupling_length_statistics,
    fabry_perot_fringes,
    fabry_perot_loss,
    fit_coupling_sinusoid,
    fit_gaussian_dip,
    fresnel_reflectivity,
    fringe_contrast,
    normalized_scan,
)
from lnhom.hom import DelayScan

from _oracles import dip_fit_reference, fp_contrast, sinusoid_fit_reference

# the one label each PowerRatioSeries field is refused under
SERIES_LABELS = {"interaction_length_um": "interaction lengths",
                 "ratio": "power ratios"}


def _sinusoid(lengths, coupling_length, offset, amplitude, baseline):
    theta = 0.5 * math.pi * (lengths + offset) / coupling_length
    return baseline + amplitude * np.sin(theta) ** 2


def _dip(delays, visibility, center, width, baseline):
    shape = np.exp(-((delays - center) ** 2) / (2.0 * width**2))
    return baseline * (1.0 - visibility * shape)


# --- sin^2 power-exchange fit ---------------------------------------------

def test_noiseless_sinusoid_roundtrip():
    lengths = np.linspace(0.0, 400.0, 25)
    series = PowerRatioSeries(lengths, _sinusoid(lengths, 112.86, 28.45, 0.96, 0.02))
    fit = fit_coupling_sinusoid(series)
    # exact data: the fit stops at the generating values, to rounding
    assert fit.parameters["coupling_length_um"] == pytest.approx(112.86, rel=1e-13)
    assert fit.parameters["offset_um"] == pytest.approx(28.45, rel=1e-13)
    assert fit.parameters["amplitude"] == pytest.approx(0.96, abs=1e-13)
    assert fit.parameters["baseline"] == pytest.approx(0.02, abs=1e-13)
    predicted = _sinusoid(lengths, *(fit.parameters[k] for k in
                                     ("coupling_length_um", "offset_um",
                                      "amplitude", "baseline")))
    assert np.max(np.abs(predicted - series.ratio)) < 1e-6


def test_noisy_twelve_point_scan_recovers_coupling_length():
    rng = np.random.default_rng(101)
    lengths = np.linspace(10.0, 340.0, 12)
    clean = _sinusoid(lengths, 112.86, 0.0, 1.0, 0.0)
    noisy = np.clip(clean + rng.normal(0.0, 0.01, lengths.size), 0.0, 1.0)
    fit = fit_coupling_sinusoid(PowerRatioSeries(lengths, noisy))
    assert fit.parameters["coupling_length_um"] == pytest.approx(112.86, rel=0.01)


def test_reported_uncertainty_calibrates_against_repetition():
    rng = np.random.default_rng(77)
    lengths = np.linspace(10.0, 340.0, 12)
    clean = _sinusoid(lengths, 112.86, 0.0, 1.0, 0.0)
    estimates, claimed = [], []
    for _ in range(200):
        noisy = np.clip(clean + rng.normal(0.0, 0.01, lengths.size), 0.0, 1.0)
        fit = fit_coupling_sinusoid(PowerRatioSeries(lengths, noisy))
        estimates.append(fit.parameters["coupling_length_um"])
        claimed.append(fit.uncertainties["coupling_length_um"])
    scatter = float(np.std(estimates, ddof=1))
    typical_claim = float(np.median(claimed))
    assert 0.5 < typical_claim / scatter < 2.0


def test_length_axis_shift_moves_only_the_offset():
    lengths = np.linspace(0.0, 400.0, 25)
    ratios = _sinusoid(lengths, 112.86, 10.0, 0.9, 0.05)
    base = fit_coupling_sinusoid(PowerRatioSeries(lengths, ratios))
    shifted = fit_coupling_sinusoid(PowerRatioSeries(lengths + 30.0, ratios))
    assert shifted.parameters["coupling_length_um"] == pytest.approx(
        base.parameters["coupling_length_um"], rel=1e-6)
    assert shifted.parameters["amplitude"] == pytest.approx(
        base.parameters["amplitude"], abs=1e-6)
    delta = base.parameters["offset_um"] - shifted.parameters["offset_um"]
    period = 2.0 * base.parameters["coupling_length_um"]
    assert math.remainder(delta - 30.0, period) == pytest.approx(0.0, abs=1e-4)


def test_constant_series_is_unidentifiable():
    lengths = np.linspace(0.0, 100.0, 11)
    with pytest.raises(UnidentifiableDataError):
        fit_coupling_sinusoid(PowerRatioSeries(lengths, np.full(11, 0.4)))


def test_sinusoid_fit_needs_enough_points():
    lengths = np.linspace(0.0, 100.0, 5)
    with pytest.raises(ValueError):
        fit_coupling_sinusoid(PowerRatioSeries(lengths, np.linspace(0, 1, 5)))


@pytest.mark.parametrize("kind", ["complex", "str", "object"])
@pytest.mark.parametrize("field", ["interaction_length_um", "ratio"])
def test_power_series_refuses_non_real_columns(field, kind):
    # refused before the float cast, which would drop the imaginary part or
    # parse the strings, with the column named by its one label
    columns = {"interaction_length_um": np.array([0.0, 10.0, 20.0]),
               "ratio": np.array([0.1, 0.5, 0.9])}
    columns[field] = {"complex": columns[field] + 0.5j,
                      "str": columns[field].astype(str),
                      "object": columns[field].astype(object)}[kind]
    with pytest.raises(ValueError,
                       match=f"^{SERIES_LABELS[field]} must be real numbers"):
        PowerRatioSeries(**columns)
    # bool and integer columns are cast to float
    series = PowerRatioSeries(np.array([0, 10, 20]),
                              np.array([False, True, True]))
    assert series.interaction_length_um.dtype == series.ratio.dtype \
        == np.float64


def test_power_series_validation():
    with pytest.raises(ValueError):
        PowerRatioSeries([0.0, 1.0], [0.5, 1.2])
    with pytest.raises(ValueError):
        PowerRatioSeries([0.0, 0.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        PowerRatioSeries([0.0, 1.0], [0.5])
    # nor does a built series take a refused ratio: not written into its
    # arrays, not by rebinding a field, and not through the caller's array
    ratios = np.array([0.5, 0.6, 0.7])
    series = PowerRatioSeries([0.0, 1.0, 2.0], ratios)
    with pytest.raises(ValueError, match="read-only"):
        series.ratio[2] = 7.0
    with pytest.raises(ValueError, match="read-only"):
        series.interaction_length_um[2] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        series.ratio = np.full(3, 7.0)
    ratios[2] = 7.0
    assert series.ratio.tolist() == [0.5, 0.6, 0.7]


@pytest.mark.parametrize("field, column, rule", [
    ("interaction_length_um", [], "must be a non-empty 1D axis"),
    ("interaction_length_um", [[0.0, 1.0, 2.0]], "must be a non-empty 1D axis"),
    ("interaction_length_um", [0.0, 2.0, 1.0], "must be strictly increasing"),
    ("interaction_length_um", [0.0, math.nan, 2.0], "must be finite"),
    ("ratio", [0.5, 0.5], "must have the axis shape"),
    ("ratio", [0.5, math.nan, 0.5], "must be finite"),
    ("ratio", [0.5, 1.5, 0.5], "must lie in"),
    ("ratio", ["0.5", "0.5", "0.5"], "must be real numbers"),
])
def test_every_refusal_of_a_series_column_names_its_one_label(field, column,
                                                              rule):
    columns = {"interaction_length_um": [0.0, 1.0, 2.0],
               "ratio": [0.5, 0.6, 0.7], field: column}
    with pytest.raises(ValueError, match=f"^{SERIES_LABELS[field]} {rule}"):
        PowerRatioSeries(**columns)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_power_series_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="power ratios must be finite"):
        PowerRatioSeries([0.0, 1.0, 2.0], [0.5, bad, 0.5])
    with pytest.raises(ValueError, match="interaction lengths must be finite"):
        PowerRatioSeries([0.0, bad, 2.0], [0.5, 0.5, 0.5])


# --- Gaussian dip fit ------------------------------------------------------

def test_noiseless_dip_roundtrip():
    delays = np.linspace(-8.0, 8.0, 41)
    scan = DelayScan(delays, _dip(delays, 0.935, 0.3, 1.2, 950.0))
    fit = fit_gaussian_dip(scan)
    assert fit.parameters["visibility"] == pytest.approx(0.935, abs=1e-13)
    assert fit.parameters["center_ps"] == pytest.approx(0.3, abs=1e-13)
    assert fit.parameters["width_ps"] == pytest.approx(1.2, abs=1e-13)
    assert fit.parameters["baseline"] == pytest.approx(950.0, rel=1e-13)


def test_poisson_counts_dip_recovers_visibility():
    rng = np.random.default_rng(404)
    delays = np.linspace(-6.0, 6.0, 61)
    counts = rng.poisson(_dip(delays, 0.9, 0.0, 1.0, 400.0))
    fit = fit_gaussian_dip(DelayScan(delays, counts))
    sigma = fit.uncertainties["visibility"]
    assert abs(fit.parameters["visibility"] - 0.9) < 3.0 * sigma
    assert 0.0 < sigma < 0.05


def test_flat_scan_visibility_consistent_with_zero():
    rng = np.random.default_rng(2024)
    delays = np.linspace(-5.0, 5.0, 41)
    values = 1.0 + rng.normal(0.0, 0.003, delays.size)
    fit = fit_gaussian_dip(DelayScan(delays, np.abs(values)))
    assert abs(fit.parameters["visibility"]) \
        < 2.0 * fit.uncertainties["visibility"] + 0.01


def test_flat_scans_fit_finitely_or_resolve_no_dip():
    # with no dip the chi-square can fall towards a one-sample spike or a
    # parabola: each scan ends in a finite fit or says it holds no dip
    delays = np.linspace(-5.0, 5.0, 41)
    outcomes = set()
    for seed in range(100):
        values = 1.0 + np.random.default_rng(seed).normal(0.0, 0.003, 41)
        try:
            fit = fit_gaussian_dip(DelayScan(delays, np.abs(values)))
        except UnidentifiableDataError as error:
            outcomes.add(str(error).split(" to a width")[0])
            assert str(error).endswith("the scan resolves no dip")
        else:
            assert np.all(np.isfinite(list(fit.parameters.values())))
            assert np.all(np.isfinite(fit.covariance))
    assert outcomes == {"the dip fit narrowed", "the dip fit widened"}


def test_flat_poisson_scan_chasing_an_outside_dip_is_unidentifiable():
    # seed 39 walks its centre out of the scan while the visibility grows
    # without bound: it fits the flank of a dip that the scan never reaches
    delays = np.linspace(-5.0, 5.0, 41)
    values = np.random.default_rng(39).poisson(400, 41)
    with pytest.raises(UnidentifiableDataError,
                       match="over three widths outside the scan"):
        fit_gaussian_dip(DelayScan(delays, values))


def test_flat_poisson_scans_fit_inside_or_resolve_no_dip():
    delays = np.linspace(-5.0, 5.0, 41)
    for seed in range(100):
        values = np.random.default_rng(seed).poisson(400, 41)
        try:
            fit = fit_gaussian_dip(DelayScan(delays, values))
        except UnidentifiableDataError as error:
            assert str(error).endswith("the scan resolves no dip")
        else:
            center = fit.parameters["center_ps"]
            assert abs(center) <= 5.0 + 3.0 * abs(fit.parameters["width_ps"])


def test_dip_on_one_sample_is_unidentifiable():
    delays = np.linspace(-5.0, 5.0, 41)
    values = np.full(41, 100)
    values[20] = 40
    with pytest.raises(UnidentifiableDataError, match="narrowed"):
        fit_gaussian_dip(DelayScan(delays, values))


def test_delay_shift_moves_only_the_center():
    delays = np.linspace(-8.0, 8.0, 41)
    values = _dip(delays, 0.8, 0.0, 1.5, 100.0)
    base = fit_gaussian_dip(DelayScan(delays, values))
    moved = fit_gaussian_dip(DelayScan(delays + 2.5, values))
    assert moved.parameters["center_ps"] - base.parameters["center_ps"] \
        == pytest.approx(2.5, abs=1e-6)
    for name in ("visibility", "width_ps", "baseline"):
        assert moved.parameters[name] == pytest.approx(
            base.parameters[name], rel=1e-6)


def test_count_scale_moves_only_the_baseline():
    delays = np.linspace(-8.0, 8.0, 41)
    values = _dip(delays, 0.8, 0.0, 1.5, 100.0)
    base = fit_gaussian_dip(DelayScan(delays, values))
    scaled = fit_gaussian_dip(DelayScan(delays, 7.0 * values))
    assert scaled.parameters["baseline"] == pytest.approx(
        7.0 * base.parameters["baseline"], rel=1e-6)
    for name in ("visibility", "center_ps", "width_ps"):
        assert scaled.parameters[name] == pytest.approx(
            base.parameters[name], rel=1e-6)


def test_dip_fit_needs_enough_points():
    delays = np.linspace(-2.0, 2.0, 9)
    with pytest.raises(ValueError):
        fit_gaussian_dip(DelayScan(delays, np.ones(9)))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_dip_fit_rejects_non_finite_data(bad):
    delays = np.linspace(-8.0, 8.0, 41)
    values = _dip(delays, 0.9, 0.0, 1.0, 100.0)
    # nor can a built scan take one: a NaN written into a built scan once
    # ran the fit to ConvergenceError
    with pytest.raises(ValueError, match="read-only"):
        DelayScan(delays, values).values[20] = bad
    values[20] = bad
    with pytest.raises(ValueError, match="coincidence values must be finite"):
        fit_gaussian_dip(DelayScan(delays, values))
    delays = delays.copy()
    delays[-1] = bad
    with pytest.raises(ValueError, match="delays must be finite"):
        fit_gaussian_dip(DelayScan(delays, np.ones(41)))


# --- the solver against MINPACK --------------------------------------------

def _noisy_sinusoid(seed):
    rng = np.random.default_rng(seed)
    lengths = np.linspace(10.0, 340.0, 12)
    clean = _sinusoid(lengths, 112.86, 0.0, 1.0, 0.0)
    return lengths, np.clip(clean + rng.normal(0.0, 0.01, lengths.size), 0.0, 1.0)


def _exact_sinusoid():
    lengths = np.linspace(0.0, 400.0, 25)
    return lengths, _sinusoid(lengths, 112.86, 28.45, 0.96, 0.02)


def _poisson_dip():
    delays = np.linspace(-6.0, 6.0, 61)
    counts = np.random.default_rng(404).poisson(_dip(delays, 0.9, 0.0, 1.0, 400.0))
    return DelayScan(delays, counts)


def _float_dip():
    delays = np.linspace(-8.0, 8.0, 41)
    noise = np.random.default_rng(5).normal(0.0, 0.01, delays.size)
    return DelayScan(delays, _dip(delays, 0.935, 0.3, 1.2, 1.0) + noise)


def _assert_matches(fit, reference, compare_uncertainties=True):
    parameters, sigmas = reference
    assert list(fit.parameters.values()) == pytest.approx(
        list(parameters), rel=1e-7, abs=1e-12)
    if compare_uncertainties:
        assert list(fit.uncertainties.values()) == pytest.approx(
            list(sigmas), rel=1e-6)


def _sinusoid_matches_minpack(lengths, ratios, compare_uncertainties=True):
    fit = fit_coupling_sinusoid(PowerRatioSeries(lengths, ratios))
    reference = sinusoid_fit_reference(
        lengths, ratios, fitting._sinusoid_guess(lengths, ratios))
    _assert_matches(fit, reference, compare_uncertainties)


def test_exact_sinusoid_fit_matches_minpack():
    # only rounding is left in the residuals, so the uncertainties are
    # rounding noise and only the parameters are compared
    _sinusoid_matches_minpack(*_exact_sinusoid(), compare_uncertainties=False)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_noisy_sinusoid_fit_matches_minpack(seed):
    _sinusoid_matches_minpack(*_noisy_sinusoid(seed))


@pytest.mark.parametrize("scan", [_poisson_dip(), _float_dip()],
                         ids=["poisson-counts", "float"])
def test_dip_fit_matches_minpack(scan):
    values = np.asarray(scan.values, dtype=float)
    reference = dip_fit_reference(
        scan.delay_ps, values, fitting._dip_guess(scan.delay_ps, values),
        poisson=scan.values.dtype.kind == "i")
    _assert_matches(fit_gaussian_dip(scan), reference)


def test_fit_failure_raises_with_the_residual_norm(monkeypatch):
    monkeypatch.setattr(fitting, "MAX_ITERATIONS", 1)
    lengths, ratios = _noisy_sinusoid(1)
    fits = [lambda: fit_coupling_sinusoid(PowerRatioSeries(lengths, ratios)),
            lambda: fit_gaussian_dip(_poisson_dip())]
    for fit in fits:
        with pytest.raises(ConvergenceError, match="within 1 evaluations") \
                as failure:
            fit()
        assert math.isfinite(failure.value.residual_norm)
        assert failure.value.residual_norm > 0.0


def test_normalized_scan_puts_wings_at_unity():
    delays = np.linspace(-8.0, 8.0, 41)
    scan = DelayScan(delays, _dip(delays, 0.9, 0.0, 1.0, 3200.0))
    fit = fit_gaussian_dip(scan)
    flat = normalized_scan(scan, fit)
    # float values: a refit weights the normalized scan uniformly
    assert flat.values.dtype.kind == "f"
    assert flat.values[0] == pytest.approx(1.0, abs=1e-6)
    assert flat.values.min() == pytest.approx(0.1, abs=1e-4)


# --- facet-cavity loss -----------------------------------------------------

def test_lossless_contrast_inverts_to_zero_loss():
    reflectivity = 0.13
    contrast = 2.0 * reflectivity / (1.0 + reflectivity**2)
    assert fabry_perot_loss(contrast, reflectivity, 1.0) \
        == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("alpha", [1.0, 2.5, 4.85, 7.0, 10.0])
def test_loss_roundtrip_through_synthetic_fringes(alpha):
    reflectivity = fresnel_reflectivity(1.9)
    phase = np.linspace(0.0, 2.0 * math.pi, 1001)  # grid hits both extremes
    trace = fabry_perot_fringes(phase, alpha, 1.0, reflectivity)
    recovered = fabry_perot_loss(fringe_contrast(trace), reflectivity, 1.0)
    assert recovered == pytest.approx(alpha, rel=1e-9)


def test_fringe_contrast_matches_the_analytic_form():
    for reflectivity, alpha, length in [(0.13, 4.85, 1.0), (0.2, 2.0, 0.5),
                                        (0.05, 8.0, 2.0)]:
        phase = np.linspace(0.0, 2.0 * math.pi, 2001)
        trace = fabry_perot_fringes(phase, alpha, length, reflectivity)
        assert fringe_contrast(trace) == pytest.approx(
            fp_contrast(reflectivity, alpha, length), abs=1e-12)


def test_higher_contrast_means_lower_loss():
    reflectivity = 0.13
    contrasts = np.linspace(0.02, 0.24, 12)
    losses = [fabry_perot_loss(c, reflectivity, 1.0) for c in contrasts]
    assert all(a > b for a, b in zip(losses, losses[1:]))


def test_impossible_contrast_warns_of_gain():
    reflectivity = 0.13
    bound = 2.0 * reflectivity / (1.0 + reflectivity**2)
    with pytest.warns(NegativeLossWarning):
        alpha = fabry_perot_loss(bound + 0.02, reflectivity, 1.0)
    assert alpha < 0.0


@pytest.mark.parametrize("reflectivity", [0.0, 1.0, math.nan],
                         ids=["0", "1", "nan"])
def test_fringes_refuse_a_reflectivity_outside_the_open_interval(
        reflectivity):
    with pytest.raises(ValueError, match="^facet reflectivity must lie "
                                         "strictly between 0 and 1$"):
        fabry_perot_fringes(0.0, 4.85, 1.0, reflectivity)


def test_loss_inputs_are_validated():
    for bad in [(0.0, 0.13, 1.0), (1.0, 0.13, 1.0), (0.1, 0.0, 1.0),
                (0.1, 1.0, 1.0), (0.1, 0.13, 0.0), (0.1, 0.13, math.nan),
                (0.1, 0.13, math.inf)]:
        with pytest.raises(ValueError):
            fabry_perot_loss(*bad)
    for length in (math.nan, math.inf):
        with pytest.raises(ValueError, match="length_cm"):
            fabry_perot_fringes(0.0, 4.85, length, 0.13)
    with pytest.raises(ValueError):
        fringe_contrast(np.zeros(5))
    for n_eff in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            fresnel_reflectivity(n_eff)


def test_fresnel_reflectivity_hand_value():
    assert fresnel_reflectivity(1.9) == pytest.approx((0.9 / 2.9) ** 2, rel=1e-12)


# --- per-port statistics ---------------------------------------------------

def test_coupling_length_statistics_two_ports():
    mean, std = coupling_length_statistics([114.85, 110.87])
    assert mean == pytest.approx(112.86, abs=1e-9)
    assert std == pytest.approx(abs(114.85 - 110.87) / math.sqrt(2.0), rel=1e-9)


def test_coupling_length_statistics_needs_two_values():
    with pytest.raises(ValueError):
        coupling_length_statistics([112.86])
