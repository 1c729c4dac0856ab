"""Few-photon enumeration and the multi-pair visibility it feeds:
cross-checked against an independent permanent-based amplitude route,
hand-derived coincidence values, and the emission-statistics
distributions."""

import itertools
import math

import pytest
import scipy.stats

import _oracles as oracle
from lnhom import reference as ref
from lnhom.counting import DetectorModel, SourceModel, model_visibility
from lnhom.fock import (PAIR_STATISTICS, arm_occupation_distribution,
                        pair_number_probabilities)
from lnhom.hom import TwoPhotonState, combined_visibility, spectral_overlap

# 1 - P_cc(0) / P_cc(inf) from oracle.pulse_coincidence_probability at
# mu = 0.01 Poissonian, I = 1, eta = 0.5 and ideal detectors, frozen first
TWO_PAIR_VISIBILITY_MU_001 = 0.9974896740601031

GRID = [
    (1, 0.0, 0.5), (1, 0.5, 0.5), (1, 1.0, 0.5),
    (1, 0.9801, 0.546), (1, 1.0, 0.3),
    (2, 0.0, 0.5), (2, 0.5, 0.5), (2, 1.0, 0.5),
    (2, 0.9801, 0.546), (2, 0.7, 0.3),
    (3, 0.7, 0.546),
]

# a pair with unit overlap at zero delay
PERFECT = TwoPhotonState(1550.0, 6.0)
IDEAL = DetectorModel()


def _coincidence(arms):
    """Probability that both arms receive at least one photon."""
    return sum(p for (a, b), p in arms.items() if a >= 1 and b >= 1)


def _visibility(mu, statistics="poissonian-pairs", state=PERFECT, eta=0.5,
                detectors=IDEAL):
    return model_visibility(state, eta, SourceModel(mu, statistics=statistics),
                            detectors)


# --- agreement with the permanent-based amplitude route -------------------

@pytest.mark.parametrize("n_pairs,overlap,eta", GRID)
def test_output_distribution_matches_permanent_route(n_pairs, overlap, eta):
    package = arm_occupation_distribution(n_pairs, overlap, eta)
    permanent = oracle._arm_distribution_permanent(n_pairs, overlap, eta)
    for arms in set(package) | set(permanent):
        assert package.get(arms, 0.0) == pytest.approx(
            permanent.get(arms, 0.0), abs=1e-9
        ), arms


@pytest.mark.parametrize("n_pairs,overlap,eta", GRID)
def test_threshold_coincidence_matches_permanent_route(n_pairs, overlap, eta):
    assert _coincidence(arm_occupation_distribution(n_pairs, overlap, eta)) \
        == pytest.approx(_coincidence(
            oracle._arm_distribution_permanent(n_pairs, overlap, eta)),
            abs=1e-9)


def test_mixture_visibility_matches_permanent_route():
    state = ref.reference_photon_pair()
    overlap = spectral_overlap(state, 0.0)
    for statistics, mu, efficiency, dark in itertools.product(
            ("poissonian-pairs", "thermal-pairs"),
            (0.002, 0.009, 0.05, 0.5, 2.0), (0.5, 0.95, 1.0), (0.0, 0.01)):
        def rate(indistinguishability):
            return oracle.pulse_coincidence_probability(
                mu, statistics, indistinguishability, 0.546, efficiency, dark)

        expected = 1.0 - rate(overlap) / rate(0.0)
        detectors = DetectorModel(efficiency=efficiency,
                                  dark_count_probability=dark)
        assert _visibility(mu, statistics, state, 0.546, detectors) \
            == pytest.approx(expected, rel=0.0, abs=1e-12), \
            (statistics, mu, efficiency, dark)


# --- hand-derived coincidence probabilities -------------------------------

def test_single_distinguishable_pair_coincides_half_the_time():
    assert _coincidence(arm_occupation_distribution(1, 0.0)) \
        == pytest.approx(0.5, abs=1e-12)


def test_single_indistinguishable_pair_never_coincides():
    assert _coincidence(arm_occupation_distribution(1, 1.0)) \
        == pytest.approx(0.0, abs=1e-12)


def test_two_indistinguishable_pairs_coincide_one_quarter():
    assert _coincidence(arm_occupation_distribution(2, 1.0)) \
        == pytest.approx(0.25, abs=1e-12)


def test_two_distinguishable_pairs_coincide_seven_eighths():
    assert _coincidence(arm_occupation_distribution(2, 0.0)) \
        == pytest.approx(0.875, abs=1e-12)


@pytest.mark.parametrize("eta", [0.0, 0.3, 0.5, 0.546, 1.0])
def test_distinguishable_pairs_route_binomially(eta):
    # the counting model routes its three-plus pair tail this way
    package = arm_occupation_distribution(3, 0.0, eta)
    classical = oracle._arm_distribution_classical(3, eta)
    for arms in set(package) | set(classical):
        assert package.get(arms, 0.0) == pytest.approx(
            classical.get(arms, 0.0), abs=1e-15), arms


def test_two_pair_visibility_frozen_value():
    assert _visibility(0.01) \
        == pytest.approx(TWO_PAIR_VISIBILITY_MU_001, abs=1e-12)


# --- consistency with the closed-form single-pair law ---------------------

@pytest.mark.parametrize("eta", [0.3, 0.5, 0.546])
@pytest.mark.parametrize("overlap", [0.0, 0.5, 1.0])
def test_single_pair_enumeration_matches_closed_form(eta, overlap):
    arms = arm_occupation_distribution(1, overlap, eta)
    # bunching eta (1 - eta) (1 + I) into each arm, the rest coincides
    bunched = eta * (1.0 - eta) * (1.0 + overlap)
    coincidence = eta**2 + (1.0 - eta) ** 2 - 2.0 * eta * (1.0 - eta) * overlap
    assert arms.get((2, 0), 0.0) == pytest.approx(bunched, abs=1e-12)
    assert arms.get((0, 2), 0.0) == pytest.approx(bunched, abs=1e-12)
    assert arms.get((1, 1), 0.0) == pytest.approx(coincidence, abs=1e-12)


# --- probability conservation ---------------------------------------------

@pytest.mark.parametrize("n_pairs", [0, 1, 2, 3])
@pytest.mark.parametrize("overlap", [0.0, 0.7, 1.0])
@pytest.mark.parametrize("eta", [0.3, 0.5])
def test_output_distribution_is_normalized(n_pairs, overlap, eta):
    dist = arm_occupation_distribution(n_pairs, overlap, eta)
    assert all(p >= 0.0 for p in dist.values())
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)
    assert all(a + b == 2 * n_pairs for a, b in dist)


def test_zero_pair_pulse_stays_vacuum():
    assert arm_occupation_distribution(0, 1.0) == {(0, 0): 1.0}


# --- emission statistics ---------------------------------------------------

def test_poissonian_pair_numbers_match_scipy():
    probs = pair_number_probabilities(0.07, "poissonian-pairs", max_pairs=4)
    for n in range(5):
        assert probs[n] == pytest.approx(
            scipy.stats.poisson.pmf(n, 0.07), abs=1e-15)


def test_thermal_pair_numbers_match_scipy_geometric():
    mu = 0.07
    probs = pair_number_probabilities(mu, "thermal-pairs", max_pairs=4)
    # thermal occupation is geometric with success probability 1/(1+mu)
    for n in range(5):
        assert probs[n] == pytest.approx(
            scipy.stats.geom.pmf(n + 1, 1.0 / (1.0 + mu)), abs=1e-15)


def test_pair_numbers_reject_bad_arguments():
    with pytest.raises(ValueError):
        pair_number_probabilities(-0.01)
    with pytest.raises(ValueError):
        pair_number_probabilities(0.01, statistics="chaotic")


@pytest.mark.parametrize("statistics", PAIR_STATISTICS)
@pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
def test_pair_numbers_refuse_a_non_finite_mean(mu, statistics):
    with pytest.raises(ValueError, match="mean pair number must be finite "
                                         "and non-negative"):
        pair_number_probabilities(mu, statistics)


# --- mixture visibility behavior ------------------------------------------

def test_mixture_visibility_rejects_a_zero_baseline():
    # no pairs, or blind detectors, and no dark counts: nothing coincides
    with pytest.raises(ValueError, match="far delay"):
        _visibility(0.0)
    with pytest.raises(ValueError, match="far delay"):
        _visibility(0.01, detectors=DetectorModel(efficiency=0.0))
    # dark counts alone give a flat baseline and no dip
    dark = DetectorModel(dark_count_probability=0.01)
    assert _visibility(0.0, detectors=dark) == 0.0


def test_mixture_visibility_is_continuous_at_zero_mu():
    state = ref.reference_photon_pair()
    single_pair = combined_visibility(spectral_overlap(state, 0.0), 0.546)
    for detectors in (IDEAL, ref.reference_detectors()):
        assert _visibility(1e-8, state=state, eta=0.546, detectors=detectors) \
            == pytest.approx(single_pair, abs=1e-8)


def test_mixture_visibility_degrades_with_brightness():
    values = [_visibility(mu) for mu in (0.001, 0.01, 0.05, 0.5, 2.0)]
    assert all(high > low for high, low in zip(values, values[1:]))


def test_thermal_pairs_degrade_visibility_faster_than_poissonian():
    assert _visibility(0.01, "thermal-pairs") < _visibility(0.01)


def test_mixture_visibility_rejects_bad_arguments():
    with pytest.raises(ValueError):
        _visibility(-0.001)
    with pytest.raises(ValueError):
        _visibility(0.01, eta=1.2)
    with pytest.raises(ValueError):
        _visibility(0.01, eta=-0.001)


def test_enumeration_rejects_bad_arguments():
    with pytest.raises(ValueError):
        arm_occupation_distribution(-1, 1.0)
    with pytest.raises(ValueError):
        arm_occupation_distribution(1, 1.5)
    with pytest.raises(ValueError):
        arm_occupation_distribution(1, 1.0, eta=-0.2)
