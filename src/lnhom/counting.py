"""Monte Carlo photon counting for pulsed two-photon interference scans.

Each delay point simulates a train of pump pulses but draws random numbers
only for the pulses that can click.  The pulses carrying at least one pair
are an exact Bernoulli process: their number is binomial, their positions
a sorted uniform subset of the train.  Each such pulse then gets a pair
number from the conditional source statistics, and its photons are routed
to the two output arms (exact few-photon interference law for up to two
pairs, classical binomial routing for the rare three-plus tail).  Per arm,
photon clicks follow the detection efficiency on those pulses, dark clicks
are a second sorted Bernoulli process over the whole train, and the merged
click indices pass a non-paralyzable dead time.  Coincidences are the
counted indices both arms share.  Every delay point owns an independent
child stream of the master seed, so points can be evaluated in any order,
or in parallel, and still reproduce bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import (MAX_ENUMERATED_PAIRS, PAIR_STATISTICS,
                   arm_occupation_distribution, pair_number_probabilities)
from .hom import DelayScan, spectral_overlap

DEFAULT_REPETITION_PERIOD_NS = 13.1
_TAIL_PAIRS = MAX_ENUMERATED_PAIRS + 1


@dataclass(frozen=True)
class SourceModel:
    """Pulsed pair source: mean pairs per pulse, pulses per run, and the
    pair-number statistics."""

    mean_pairs_per_pulse: float
    pulses_per_run: int = 1_000_000
    statistics: str = "poissonian-pairs"
    repetition_period_ns: float = DEFAULT_REPETITION_PERIOD_NS

    def __post_init__(self):
        if self.mean_pairs_per_pulse < 0:
            raise ValueError("mean_pairs_per_pulse must be non-negative")
        if self.pulses_per_run < 1:
            raise ValueError("pulses_per_run must be at least 1")
        if self.statistics not in PAIR_STATISTICS:
            raise ValueError(f"unknown pair statistics {self.statistics!r}")
        if self.repetition_period_ns <= 0:
            raise ValueError("repetition_period_ns must be positive")


@dataclass(frozen=True)
class DetectorModel:
    """Identical threshold detectors on both arms."""

    efficiency: float = 1.0
    dead_time_ns: float = 0.0
    dark_count_probability: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError("efficiency must lie in [0, 1]")
        if self.dead_time_ns < 0:
            raise ValueError("dead_time_ns must be non-negative")
        if not 0.0 <= self.dark_count_probability <= 1.0:
            raise ValueError("dark_count_probability must lie in [0, 1]")


def _sample_pattern_counts(rng, distribution, size):
    """Draw (n_arm1, n_arm2) occupation pairs from a pattern distribution."""
    patterns = list(distribution.keys())
    probs = np.array([distribution[p] for p in patterns])
    edges = np.cumsum(probs)
    idx = np.searchsorted(edges, rng.random(size) * edges[-1], side="right")
    idx = np.minimum(idx, len(patterns) - 1)
    arr = np.array(patterns, dtype=np.int16)
    return arr[idx, 0], arr[idx, 1]


def _sorted_bernoulli_positions(rng, n_pulses, probability):
    """Sorted indices of the pulses where an independent per-pulse event of
    the given probability occurs: a binomial count, then a uniform subset of
    that size drawn without replacement."""
    size = rng.binomial(n_pulses, probability)
    positions = rng.choice(n_pulses, size, replace=False, shuffle=False)
    positions.sort()
    return positions


def _merge_sorted(a, b):
    """Sorted union of two sorted index arrays, duplicates dropped."""
    merged = np.concatenate((a, b))
    merged.sort()
    first = np.ones(merged.size, dtype=bool)
    first[1:] = merged[1:] != merged[:-1]
    return merged[first]


def _apply_dead_time(clicks, blind_step):
    """Non-paralyzable veto on sorted click indices: after a counted click,
    the channel stays blind for the next blind_step - 1 pulses.  Returns the
    indices of the counted clicks."""
    if blind_step <= 1:
        return clicks
    counted = []
    next_free = 0
    for i in clicks.tolist():
        if i >= next_free:
            counted.append(i)
            next_free = i + blind_step
    return np.array(counted, dtype=np.int64)


def simulate_counts(state, eta, source, detectors, delays_ps,
                    pulses_per_point=None, seed=None):
    """Coincidence counts over a delay scan; returns a counts DelayScan.

    ``seed`` is mandatory: identical inputs and seed give identical counts.
    ``pulses_per_point`` defaults to the source's pulses_per_run.
    """
    if seed is None:
        raise ValueError("seed is required for reproducible simulation")
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    delays = np.asarray(delays_ps, dtype=float)
    n_pulses = source.pulses_per_run if pulses_per_point is None \
        else int(pulses_per_point)
    if n_pulses < 1:
        raise ValueError("pulses_per_point must be at least 1")

    mu = source.mean_pairs_per_pulse
    class_probs = pair_number_probabilities(mu, source.statistics,
                                            MAX_ENUMERATED_PAIRS)
    p_active = 1.0 - class_probs[0]
    # an active pulse's class: u * p_active below the first edge is one pair,
    # below the second two pairs, the tail beyond the last edge
    class_edges = np.cumsum(class_probs[1:])

    blind_step = max(1, math.ceil(detectors.dead_time_ns
                                  / source.repetition_period_ns))
    eff = detectors.efficiency
    dark = detectors.dark_count_probability

    streams = np.random.SeedSequence(seed).spawn(delays.size)
    counts = np.zeros(delays.size, dtype=np.int64)
    for point, child in enumerate(streams):
        rng = np.random.default_rng(child)
        overlap = spectral_overlap(state, float(delays[point]))

        active = _sorted_bernoulli_positions(rng, n_pulses, p_active)
        pulse_class = 1 + np.searchsorted(
            class_edges, rng.random(active.size) * p_active, side="right")
        n_arm1 = np.zeros(active.size, dtype=np.int16)
        n_arm2 = np.zeros(active.size, dtype=np.int16)
        for n_pairs in range(1, MAX_ENUMERATED_PAIRS + 1):
            mask = pulse_class == n_pairs
            if mask.any():
                dist = arm_occupation_distribution(n_pairs, overlap, eta)
                a1, a2 = _sample_pattern_counts(rng, dist, int(mask.sum()))
                n_arm1[mask] = a1
                n_arm2[mask] = a2
        tail = pulse_class > MAX_ENUMERATED_PAIRS
        if tail.any():
            # rare >=3-pair pulses: interference neglected, photons routed
            # independently (signal keeps the bar port with prob 1 - eta)
            size = int(tail.sum())
            stay = rng.binomial(_TAIL_PAIRS, 1.0 - eta, size)
            cross = rng.binomial(_TAIL_PAIRS, eta, size)
            n_arm1[tail] = stay + cross
            n_arm2[tail] = 2 * _TAIL_PAIRS - stay - cross

        counted = []
        for occupation in (n_arm1, n_arm2):
            p_click = 1.0 - (1.0 - eff) ** occupation.astype(float)
            photon = active[rng.random(active.size) < p_click]
            dark_clicks = _sorted_bernoulli_positions(rng, n_pulses, dark)
            counted.append(_apply_dead_time(_merge_sorted(photon, dark_clicks),
                                            blind_step))
        counts[point] = np.intersect1d(counted[0], counted[1],
                                       assume_unique=True).size

    return DelayScan(delay_ps=delays, values=counts, normalized=False)
