"""Monte Carlo counting: determinism, agreement with the enumeration
probabilities, and the detector imperfections."""

import itertools
import math
import threading

import numpy as np
import pytest
from scipy.stats import chi2

import _oracles as oracle
import lnhom.counting as counting
from lnhom.counting import (DetectorModel, SourceModel, _apply_dead_time,
                            _click_pattern_probabilities, _clicking_pulses,
                            simulate_counts)
from lnhom.fock import arm_occupation_distribution, pair_number_probabilities
from lnhom.hom import TwoPhotonState, spectral_overlap

STATE = TwoPhotonState(1550.0, 6.0)
IDEAL = DetectorModel()
# dark counts and a dead time of six 13.1 ns pulse periods
BRIGHT_DETECTORS = DetectorModel(efficiency=0.9, dead_time_ns=70.0,
                                 dark_count_probability=0.01)


def _source(mu, pulses=100_000):
    return SourceModel(mean_pairs_per_pulse=mu, pulses_per_run=pulses)


def _bright_source(pulses=50_000):
    """High-gain regime: a third of the pulses carry pairs, and 3.7 % carry
    three or more."""
    return SourceModel(mean_pairs_per_pulse=0.5, pulses_per_run=pulses,
                       statistics="thermal-pairs")


def _expected_probability(mu, overlap, eta):
    """Per-pulse coincidence probability from the exact enumeration, ideal
    detectors, tail neglected."""
    probs = pair_number_probabilities(mu, "poissonian-pairs", 2)
    return sum(
        probs[n] * p
        for n in (1, 2)
        for (a, b), p in arm_occupation_distribution(n, overlap, eta).items()
        if a >= 1 and b >= 1
    )


# --- determinism -----------------------------------------------------------

def test_same_seed_reproduces_counts_bit_for_bit():
    delays = np.linspace(-3.0, 3.0, 7)
    first = simulate_counts(STATE, 0.5, _source(0.01), IDEAL, delays, seed=42)
    second = simulate_counts(STATE, 0.5, _source(0.01), IDEAL, delays, seed=42)
    np.testing.assert_array_equal(first.values, second.values)


def test_different_seeds_differ():
    delays = np.linspace(-3.0, 3.0, 7)
    first = simulate_counts(STATE, 0.5, _source(0.01), IDEAL, delays, seed=1)
    second = simulate_counts(STATE, 0.5, _source(0.01), IDEAL, delays, seed=2)
    assert not np.array_equal(first.values, second.values)


def test_delay_points_own_independent_streams():
    # a shorter scan must reproduce the leading points of a longer one
    long_axis = np.linspace(-3.0, 3.0, 7)
    long_scan = simulate_counts(STATE, 0.5, _source(0.01), IDEAL, long_axis,
                                seed=7)
    short_scan = simulate_counts(STATE, 0.5, _source(0.01), IDEAL,
                                 long_axis[:4], seed=7)
    np.testing.assert_array_equal(short_scan.values, long_scan.values[:4])


def test_bright_scan_reproduces_bit_for_bit():
    delays = np.linspace(-3.0, 3.0, 7)
    first = simulate_counts(STATE, 0.5, _bright_source(), BRIGHT_DETECTORS,
                            delays, seed=42)
    second = simulate_counts(STATE, 0.5, _bright_source(), BRIGHT_DETECTORS,
                             delays, seed=42)
    np.testing.assert_array_equal(first.values, second.values)


def test_bright_scan_keeps_the_prefix_property():
    long_axis = np.linspace(-3.0, 3.0, 7)
    long_scan = simulate_counts(STATE, 0.5, _bright_source(), BRIGHT_DETECTORS,
                                long_axis, seed=7)
    short_scan = simulate_counts(STATE, 0.5, _bright_source(),
                                 BRIGHT_DETECTORS, long_axis[:4], seed=7)
    np.testing.assert_array_equal(short_scan.values, long_scan.values[:4])


# thermal mu = 0.5 over 120 000 pulses: 41 000 clicking pulses per point,
# above the floor from which the points run on the thread pool; the axis
# is asymmetric, so a point paired with its mirror's table shows
POOLED_DELAYS = np.array([-3.0, -0.5, 0.0, 0.25, 2.0])
# this scan's counts as the one-point-at-a-time loop gave them before the
# pool existed
POOLED_COUNTS = [6362, 4595, 1800, 2741, 6278]


def _pooled_scan():
    return simulate_counts(STATE, 0.5, _bright_source(120_000),
                           BRIGHT_DETECTORS, POOLED_DELAYS, seed=27)


def _on_main_thread():
    return threading.current_thread() is threading.main_thread()


@pytest.mark.parametrize("workers", [None, 1, 2], ids=["loop", "1 worker",
                                                       "2 workers"])
def test_pooled_and_looped_points_count_alike(monkeypatch, workers):
    threads = []
    count_point = counting._count_point

    def spy(*args):
        threads.append(_on_main_thread())
        return count_point(*args)

    monkeypatch.setattr(counting, "_count_point", spy)
    if workers is None:
        monkeypatch.setattr(counting, "POOL_MIN_CLICKS", np.inf)
    else:
        monkeypatch.setattr(counting, "_worker_count", lambda points: workers)
    scan = _pooled_scan()
    assert scan.values.tolist() == POOLED_COUNTS
    # the loop runs every point on the calling thread, the pool none, so
    # the scan is above the floor
    assert threads == [workers is None] * POOLED_DELAYS.size


# thermal mu = 0.5 over 700 000 pulses: 241 000 clicking pulses per point,
# so every point draws its train and its patterns in four DRAW_CHUNKs
CHUNKED_DELAYS = np.array([-1.5, 0.0, 4.0])
# this scan's counts as the whole-train draws gave them before the chunks
CHUNKED_COUNTS = [36655, 10353, 36445]


def test_bright_points_across_draw_chunks_keep_their_counts():
    source = _bright_source(700_000)
    clicks = source.pulses_per_run * np.sum(_click_pattern_probabilities(
        spectral_overlap(STATE, 0.0), 0.5, source, BRIGHT_DETECTORS))
    assert clicks > 3 * counting.DRAW_CHUNK
    scan = simulate_counts(STATE, 0.5, source, BRIGHT_DETECTORS,
                           CHUNKED_DELAYS, seed=28)
    assert scan.values.tolist() == CHUNKED_COUNTS


def test_traced_public_functions_run_on_the_calling_thread(monkeypatch):
    calls = []
    for name in ("spectral_overlap", "pair_number_probabilities",
                 "arm_occupation_distribution"):
        def spy(*args, _wrapped=getattr(counting, name), **kwargs):
            calls.append(_on_main_thread())
            return _wrapped(*args, **kwargs)
        monkeypatch.setattr(counting, name, spy)
    monkeypatch.setattr(counting, "_worker_count", lambda points: 2)
    assert _pooled_scan().values.tolist() == POOLED_COUNTS
    assert calls and all(calls)


@pytest.mark.parametrize("delays, message", [
    (0.0, "non-empty 1D"),
    ([], "non-empty 1D"),
    ([[0.0, 1.0], [2.0, 3.0]], "non-empty 1D"),
    ([np.nan], "delays_ps"),
    ([-1.0, np.nan, 1.0], "delays_ps"),
    ([1.0, 0.0], "strictly increasing"),
    ([0.0, 0.0], "strictly increasing"),
], ids=["scalar", "empty", "2D", "NaN", "NaN inside", "decreasing",
        "repeated"])
def test_delay_axis_is_checked_before_any_point(monkeypatch, delays, message):
    def unreachable(*args, **kwargs):
        raise AssertionError("a point was simulated")

    monkeypatch.setattr(counting, "spectral_overlap", unreachable)
    monkeypatch.setattr(counting, "_count_point", unreachable)
    with pytest.raises(ValueError, match=message):
        simulate_counts(STATE, 0.5, _bright_source(), BRIGHT_DETECTORS,
                        delays, seed=1)


def test_seed_is_mandatory():
    with pytest.raises(ValueError):
        simulate_counts(STATE, 0.5, _source(0.01), IDEAL, [0.0, 1.0])


# --- agreement with the enumeration probabilities -------------------------

def test_counts_track_the_interference_law():
    # three regimes: wing, half overlap, dip floor
    sigma = STATE.sigma_omega_rad_per_ps
    half_tau = np.sqrt(np.log(2.0)) / sigma
    delays = np.array([-50.0, half_tau, 50.0 + half_tau])
    pulses = 400_000
    scan = simulate_counts(STATE, 0.5, _source(0.002, pulses), IDEAL, delays,
                           seed=20260823)
    for count, tau in zip(scan.values, delays):
        p = _expected_probability(0.002, spectral_overlap(STATE, tau), 0.5)
        sigma_count = np.sqrt(pulses * p * (1.0 - p))
        assert abs(count - pulses * p) < 4.0 * sigma_count


def test_dip_floor_is_nearly_dark():
    delays = np.array([-50.0, 0.0, 50.0])
    scan = simulate_counts(STATE, 0.5, _source(0.01, 200_000), IDEAL, delays,
                           seed=3)
    wings = 0.5 * (scan.values[0] + scan.values[-1])
    assert scan.values[1] < 0.1 * wings


@pytest.mark.parametrize("tau", [50.0, 0.0], ids=["wing", "zero delay"])
def test_bright_counts_track_the_analytic_rate(tau):
    pulses = 200_000
    detectors = DetectorModel(efficiency=0.9, dark_count_probability=0.01)
    scan = simulate_counts(STATE, 0.5, _bright_source(pulses), detectors,
                           [tau], seed=20261018)
    p = oracle.pulse_coincidence_probability(
        0.5, "thermal-pairs", spectral_overlap(STATE, tau), 0.5,
        efficiency=0.9, dark=0.01)
    sigma_count = np.sqrt(pulses * p * (1.0 - p))
    assert abs(scan.values[0] - pulses * p) < 4.0 * sigma_count


@pytest.mark.parametrize("statistics", ["poissonian-pairs", "thermal-pairs"])
@pytest.mark.parametrize("mu", [0.009, 0.5, 2.0])
def test_click_pattern_table_matches_the_permanent_oracle(mu, statistics):
    source = SourceModel(mean_pairs_per_pulse=mu, statistics=statistics)
    for overlap, efficiency, dark in itertools.product(
            (0.0, 0.5, 0.98), (0.5, 0.9, 1.0), (0.0, 0.01, 0.3, 1.0)):
        detectors = DetectorModel(efficiency=efficiency,
                                  dark_count_probability=dark)
        only1, both, only2 = _click_pattern_probabilities(
            overlap, 0.546, source, detectors)
        args = (mu, statistics, overlap, 0.546, efficiency)
        assert both == pytest.approx(
            oracle.pulse_coincidence_probability(*args, dark=dark),
            rel=0.0, abs=1e-12)
        assert only1 == pytest.approx(
            oracle.pulse_single_click_probability(*args, dark=dark, arm=1),
            rel=0.0, abs=1e-12)
        assert only2 == pytest.approx(
            oracle.pulse_single_click_probability(*args, dark=dark, arm=2),
            rel=0.0, abs=1e-12)


# --- the click-train sampler -----------------------------------------------

class _OneGapPerBatch:
    """A generator that hands out a single exponential per request, so the
    sampler must top up its batch after every click."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.requests = 0

    def standard_exponential(self, size):
        self.requests += 1
        return self._rng.standard_exponential(1)


@pytest.mark.parametrize("batches", ["sized", "one gap each"])
@pytest.mark.parametrize("probability", [0.3, 0.5, 0.8])
def test_click_trains_follow_the_bernoulli_patterns(probability, batches):
    # every pattern of 4 pulses, drawn 20 000 times, against its
    # enumerated probability p^k (1 - p)^(4 - k)
    n_pulses, draws = 4, 20_000
    rng = (np.random.default_rng(16) if batches == "sized"
           else _OneGapPerBatch(16))
    observed = np.zeros(2**n_pulses)
    for _ in range(draws):
        observed[np.sum(2 ** _clicking_pulses(rng, n_pulses, probability))] += 1
    clicks = np.array([bin(pattern).count("1")
                       for pattern in range(2**n_pulses)])
    expected = draws * probability**clicks \
        * (1.0 - probability) ** (n_pulses - clicks)
    statistic = np.sum((observed - expected) ** 2 / expected)
    assert chi2.sf(statistic, 2**n_pulses - 1) > 1e-3
    if batches == "one gap each":
        assert rng.requests > draws


def _whole_train(rng, n_pulses, probability):
    """The click-train sampler as it drew each batch in one call, before
    the draws came in chunks."""
    rate = -math.log1p(-probability)
    batches, last = [], -1
    while last < n_pulses - 1:
        remaining = n_pulses - 1 - last
        expected = remaining * probability
        size = min(math.ceil(expected + 4.0 * math.sqrt(expected)) + 1,
                   remaining + 1)
        gaps = rng.standard_exponential(size)
        with np.errstate(over="ignore"):
            gaps /= rate
        np.minimum(gaps, n_pulses, out=gaps)
        train = gaps.astype(np.int64)
        train += 1
        train[0] += last
        np.cumsum(train, out=train)
        last = int(train[-1])
        batches.append(train)
    batches[-1] = train[:np.searchsorted(train, n_pulses)]
    return batches[0] if len(batches) == 1 else np.concatenate(batches)


# batches of about 0.5, 1.5 and 3.1 DRAW_CHUNKs, and of one draw past a
# chunk's end (2^16 pulses, whose batch is capped at n_pulses + 1)
@pytest.mark.parametrize("n_pulses, probability", [
    (100_000, 0.3), (300_000, 0.33), (10**6, 0.2), (2**16, 1.0 - 1e-3)])
def test_chunked_click_trains_match_whole_draws(n_pulses, probability):
    for seed in range(3):
        chunked, whole = (np.random.default_rng(seed) for _ in range(2))
        train = _clicking_pulses(chunked, n_pulses, probability)
        assert train.dtype == np.int64
        np.testing.assert_array_equal(
            train, _whole_train(whole, n_pulses, probability))
        # the pattern uniforms that follow come from the same stream
        assert chunked.random() == whole.random()


def test_click_trains_at_the_probability_limits():
    rng = np.random.default_rng(3)
    assert _clicking_pulses(rng, 1000, 0.0).size == 0
    for probability in (1.0, 1.0 + 2e-16):
        np.testing.assert_array_equal(
            _clicking_pulses(rng, 1000, probability), np.arange(1000))


@pytest.mark.parametrize("probability", [1e-19, 1e-300, 5e-324])
def test_click_trains_clamp_gaps_beyond_int64(probability):
    # E / -log1p(-p) reaches past 2^63 (or infinity): unclamped, the cast
    # to int64 would wrap to a negative gap
    rng = np.random.default_rng(4)
    for _ in range(200):
        train = _clicking_pulses(rng, 10**6, probability)
        assert train.dtype == np.int64 and train.size == 0


def test_bright_counts_without_dead_time_average_to_the_click_table():
    # no dead time, so each point is a binomial count of its P12
    pulses = 20_000
    delays = np.linspace(-3.0, 3.0, 300)
    detectors = DetectorModel(efficiency=0.9, dark_count_probability=0.01)
    scan = simulate_counts(STATE, 0.5, _bright_source(pulses), detectors,
                           delays, seed=20261019)
    both = np.array([_click_pattern_probabilities(
        spectral_overlap(STATE, tau), 0.5, _bright_source(pulses),
        detectors)[1] for tau in delays])
    standard_error = np.sqrt(np.sum(pulses * both * (1.0 - both)))
    assert abs(scan.values.sum() - pulses * both.sum()) < 4.0 * standard_error


# --- detector imperfections ------------------------------------------------

def test_zero_efficiency_counts_nothing():
    blind = DetectorModel(efficiency=0.0)
    scan = simulate_counts(STATE, 0.5, _source(0.05, 50_000), blind,
                           [-5.0, 0.0, 5.0], seed=11)
    assert np.all(scan.values == 0)


def test_dark_counts_alone_produce_coincidences():
    dark = DetectorModel(efficiency=1.0, dark_count_probability=0.05)
    pulses = 20_000
    scan = simulate_counts(STATE, 0.5, _source(0.0, pulses), dark, [0.0],
                           seed=5)
    expected = pulses * 0.05**2
    assert abs(scan.values[0] - expected) < 5.0 * np.sqrt(expected)


def test_saturated_detectors_click_every_pulse():
    always = DetectorModel(efficiency=1.0, dark_count_probability=1.0)
    scan = simulate_counts(STATE, 0.5, _source(0.0, 1234), always, [0.0],
                           seed=8)
    assert scan.values[0] == 1234


def test_dead_time_below_one_period_changes_nothing():
    kwargs = dict(delays_ps=[0.0], seed=9)
    free = simulate_counts(STATE, 0.5, _source(0.0, 30_000),
                           DetectorModel(dark_count_probability=0.3), **kwargs)
    short = simulate_counts(
        STATE, 0.5, _source(0.0, 30_000),
        DetectorModel(dark_count_probability=0.3, dead_time_ns=13.0), **kwargs)
    np.testing.assert_array_equal(free.values, short.values)


def test_dead_time_beyond_one_period_suppresses_counts():
    kwargs = dict(delays_ps=[0.0], seed=9)
    free = simulate_counts(STATE, 0.5, _source(0.0, 30_000),
                           DetectorModel(dark_count_probability=0.3), **kwargs)
    vetoed = simulate_counts(
        STATE, 0.5, _source(0.0, 30_000),
        DetectorModel(dark_count_probability=0.3, dead_time_ns=40.0), **kwargs)
    assert vetoed.values[0] < 0.7 * free.values[0]


def test_dead_time_longer_than_the_run_counts_only_the_first_click():
    clicks = np.flatnonzero(_click_train(0.3))
    np.testing.assert_array_equal(clicks[_apply_dead_time(clicks, 10**30)],
                                  clicks[:1])
    delays = [-2.0, 0.0, 2.0]
    forever = DetectorModel(efficiency=0.9, dead_time_ns=1e300,
                            dark_count_probability=0.01)
    scan = simulate_counts(STATE, 0.5, _bright_source(20_000), forever,
                           delays, seed=21)
    assert np.all(scan.values <= 1)
    # every pulse clicks on both arms, so the first pulse is the one count
    saturated = DetectorModel(dead_time_ns=1e300, dark_count_probability=1.0)
    scan = simulate_counts(STATE, 0.5, _source(0.0, 5_000), saturated, delays,
                           seed=21)
    np.testing.assert_array_equal(scan.values, [1, 1, 1])


def test_dead_time_whose_period_ratio_overflows_blinds_the_whole_run():
    # 1e308 / 0.1 overflows to inf; a window reaching past the last pulse
    # counts what one of exactly the run's length counts
    fast = SourceModel(mean_pairs_per_pulse=0.5, pulses_per_run=20_000,
                       statistics="thermal-pairs", repetition_period_ns=0.1)
    delays = np.linspace(-4.0, 4.0, 7)
    for dark in (0.01, 1.0):
        scans = [simulate_counts(STATE, 0.5, fast,
                                 DetectorModel(efficiency=0.9,
                                               dead_time_ns=dead_time_ns,
                                               dark_count_probability=dark),
                                 delays, seed=21).values
                 for dead_time_ns in (1e308, 0.1 * 20_000)]
        np.testing.assert_array_equal(scans[0], scans[1])
    # every pulse clicks both arms: the first pulse is each point's count
    np.testing.assert_array_equal(scans[0], np.ones(7))


def test_dead_time_oracle_counts_a_long_run_once_per_window():
    run = np.zeros(20, dtype=bool)
    run[:14] = True
    np.testing.assert_array_equal(
        np.flatnonzero(oracle.dense_dead_time(run, 6)), [0, 6, 12])


def _click_train(kind):
    """A random train at the given click density, or a hand-made one with
    clicks on the first and last pulse and back-to-back runs longer than
    the blind window."""
    if kind != "edges":
        return np.random.default_rng(17).random(20_000) < kind
    raw = np.zeros(60, dtype=bool)
    raw[[0, 20, 59]] = True
    raw[3:17] = True
    raw[25:40] = True
    return raw


# 12 and 77 fall on either side of the switch from shifted slices to a
# binary search for the dense trains, and 100 000 is longer than any train
@pytest.mark.parametrize("blind_step", [1, 2, 6, 12, 77, 100_000])
@pytest.mark.parametrize("train", [0.001, 0.3, 1.0, "edges"])
def test_dead_time_matches_the_dense_oracle(train, blind_step):
    raw = _click_train(train)
    expected = np.flatnonzero(oracle.dense_dead_time(raw, blind_step))
    clicks = np.flatnonzero(raw)
    np.testing.assert_array_equal(clicks[_apply_dead_time(clicks, blind_step)],
                                  expected)


@pytest.mark.parametrize("blind_step", [2, 6, 12, 77, 100_000])
@pytest.mark.parametrize("train", [0.001, 0.3, 1.0, "edges"])
def test_dead_time_on_int32_indices_matches_int64(train, blind_step):
    # the points narrow their click indices to int32 before the veto
    clicks = np.flatnonzero(_click_train(train))
    np.testing.assert_array_equal(
        _apply_dead_time(clicks.astype(np.int32), blind_step),
        _apply_dead_time(clicks, blind_step))


# --- model validation ------------------------------------------------------

def test_source_model_validation():
    with pytest.raises(ValueError):
        SourceModel(mean_pairs_per_pulse=-0.01)
    with pytest.raises(ValueError):
        SourceModel(mean_pairs_per_pulse=0.01, pulses_per_run=0)
    with pytest.raises(ValueError):
        SourceModel(mean_pairs_per_pulse=0.01, statistics="bunched")
    with pytest.raises(ValueError):
        SourceModel(mean_pairs_per_pulse=0.01, repetition_period_ns=0.0)


@pytest.mark.parametrize("pulses", [2.5, 2.0, True, np.True_, "1000"])
def test_source_model_refuses_a_non_integer_pulse_count(pulses):
    # a bool is an Integral, but True would run one pulse
    with pytest.raises(ValueError, match="pulses_per_run must be an integer"):
        SourceModel(mean_pairs_per_pulse=0.01, pulses_per_run=pulses)


def test_source_model_accepts_numpy_integer_pulse_counts():
    scans = [simulate_counts(STATE, 0.5, _source(0.01, pulses), IDEAL,
                             [-5.0, 0.0, 5.0], seed=1)
             for pulses in (20_000, np.int64(20_000))]
    np.testing.assert_array_equal(scans[0].values, scans[1].values)


def test_detector_model_validation():
    with pytest.raises(ValueError):
        DetectorModel(efficiency=1.2)
    with pytest.raises(ValueError):
        DetectorModel(dead_time_ns=-1.0)
    with pytest.raises(ValueError):
        DetectorModel(dark_count_probability=1.5)


@pytest.mark.parametrize("model, key", [
    (SourceModel, "mean_pairs_per_pulse"),
    (SourceModel, "repetition_period_ns"),
    (DetectorModel, "dead_time_ns"),
])
@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_non_finite_model_values_are_rejected(model, key, value):
    base = {"mean_pairs_per_pulse": 0.01} if model is SourceModel else {}
    with pytest.raises(ValueError, match="finite"):
        model(**{**base, key: value})


def test_simulation_argument_validation():
    with pytest.raises(ValueError):
        simulate_counts(STATE, 1.5, _source(0.01), IDEAL, [0.0], seed=1)
