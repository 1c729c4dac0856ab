"""Few-photon enumeration: cross-checked against an independent
permanent-based amplitude route, hand-derived coincidence values, and the
emission-statistics distributions."""

import math

import pytest
import scipy.stats

from lnhom.errors import TruncationError
from lnhom.fock import (
    MAX_MEAN_PAIRS,
    arm_occupation_distribution,
    multi_pair_visibility,
    pair_number_probabilities,
    splitter_output_distribution,
    threshold_coincidence_probability,
)

from _oracles import (
    multi_pair_visibility_permanent,
    splitter_distribution_permanent,
    threshold_coincidence_permanent,
)

# multi_pair_visibility_permanent(0.01, 1.0), frozen before comparing routes
TWO_PAIR_VISIBILITY_MU_001 = 0.9975216852540273

GRID = [
    (1, 0.0, 0.5), (1, 0.5, 0.5), (1, 1.0, 0.5),
    (1, 0.9801, 0.546), (1, 1.0, 0.3),
    (2, 0.0, 0.5), (2, 0.5, 0.5), (2, 1.0, 0.5),
    (2, 0.9801, 0.546), (2, 0.7, 0.3),
]


# --- agreement with the permanent-based amplitude route -------------------

@pytest.mark.parametrize("n_pairs,overlap,eta", GRID)
def test_output_distribution_matches_permanent_route(n_pairs, overlap, eta):
    package = splitter_output_distribution(n_pairs, overlap, eta)
    oracle = splitter_distribution_permanent(n_pairs, overlap, eta)
    keys = set(package) | set(oracle)
    for occ in keys:
        assert package.get(occ, 0.0) == pytest.approx(
            oracle.get(occ, 0.0), abs=1e-9
        ), occ


@pytest.mark.parametrize("n_pairs,overlap,eta", GRID)
def test_threshold_coincidence_matches_permanent_route(n_pairs, overlap, eta):
    assert threshold_coincidence_probability(n_pairs, overlap, eta) \
        == pytest.approx(
            threshold_coincidence_permanent(n_pairs, overlap, eta), abs=1e-9)


def test_mixture_visibility_matches_permanent_route():
    for mu in (0.002, 0.01, 0.05):
        for overlap in (1.0, 0.9801):
            assert multi_pair_visibility(mu, overlap) == pytest.approx(
                multi_pair_visibility_permanent(mu, overlap), abs=1e-12
            )
    assert multi_pair_visibility(0.01, 1.0, statistics="thermal-pairs") \
        == pytest.approx(
            multi_pair_visibility_permanent(0.01, 1.0, "thermal-pairs"),
            abs=1e-12)


# --- hand-derived coincidence probabilities -------------------------------

def test_single_distinguishable_pair_coincides_half_the_time():
    assert threshold_coincidence_probability(1, 0.0) \
        == pytest.approx(0.5, abs=1e-12)


def test_single_indistinguishable_pair_never_coincides():
    assert threshold_coincidence_probability(1, 1.0) \
        == pytest.approx(0.0, abs=1e-12)


def test_two_indistinguishable_pairs_coincide_one_quarter():
    assert threshold_coincidence_probability(2, 1.0) \
        == pytest.approx(0.25, abs=1e-12)


def test_two_distinguishable_pairs_coincide_seven_eighths():
    assert threshold_coincidence_probability(2, 0.0) \
        == pytest.approx(0.875, abs=1e-12)


def test_two_pair_visibility_frozen_value():
    assert multi_pair_visibility(0.01, 1.0) \
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
    dist = splitter_output_distribution(n_pairs, overlap, eta)
    assert all(p >= 0.0 for p in dist.values())
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)
    assert all(sum(occ) == 2 * n_pairs for occ in dist)


def test_zero_pair_pulse_stays_vacuum():
    assert splitter_output_distribution(0, 1.0) == {(0, 0, 0, 0): 1.0}


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


# --- mixture visibility behavior ------------------------------------------

def test_mixture_visibility_zero_mu_returns_single_pair_value():
    assert multi_pair_visibility(0.0, 0.95) == 0.95


def test_mixture_visibility_is_continuous_at_zero_mu():
    assert multi_pair_visibility(1e-8, 0.95) \
        == pytest.approx(0.95, abs=1e-6)


def test_mixture_visibility_degrades_with_brightness():
    values = [multi_pair_visibility(mu, 1.0) for mu in (0.001, 0.01, 0.05)]
    assert values[0] > values[1] > values[2]


def test_thermal_pairs_degrade_visibility_faster_than_poissonian():
    assert multi_pair_visibility(0.01, 1.0, statistics="thermal-pairs") \
        < multi_pair_visibility(0.01, 1.0)


def test_mixture_visibility_guards_its_truncation():
    with pytest.raises(TruncationError):
        multi_pair_visibility(MAX_MEAN_PAIRS + 0.01, 1.0)
    # the limit itself is still allowed
    assert 0.0 < multi_pair_visibility(MAX_MEAN_PAIRS, 1.0) < 1.0


def test_mixture_visibility_rejects_bad_arguments():
    with pytest.raises(ValueError):
        multi_pair_visibility(-0.001, 1.0)
    with pytest.raises(ValueError):
        multi_pair_visibility(0.01, 1.2)


def test_enumeration_rejects_bad_arguments():
    with pytest.raises(ValueError):
        splitter_output_distribution(-1, 1.0)
    with pytest.raises(ValueError):
        splitter_output_distribution(1, 1.5)
    with pytest.raises(ValueError):
        splitter_output_distribution(1, 1.0, eta=-0.2)
