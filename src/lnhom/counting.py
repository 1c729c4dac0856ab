"""Monte Carlo photon counting for pulsed two-photon interference scans.

Each delay point simulates a train of pump pulses but draws random numbers
only for the pulses that click.  The point first computes the per-pulse
probabilities that only arm 1, only arm 2 or both arms click: the
source's pair-number statistics weight the exact few-photon interference
law for up to two pairs, and the three-plus tail takes the same law as
three fully distinguishable pairs, which route binomially; an arm holding
n photons clicks with probability 1 - (1 - efficiency)^n, and a dark
count, independent of the photons and of the other arm, can click it
too.  The pulses where either arm clicks are then an exact Bernoulli
process, drawn as its geometric gaps, and one uniform per pulse picks its
click pattern.  Each arm's clicks pass a non-paralyzable dead time: every
click points to the first one its blind window lets through, and walkers
that follow those pointers, all in step, mark the counted ones.  A
coincidence is a clicking pulse counted on both arms.
The cost of a point thus scales with its clicks, not its pulses.  Every
delay point owns an independent child stream of the master seed, so
points can be evaluated in any order, or in parallel, and still
reproduce bit-for-bit.  A scan whose points expect at least
``POOL_MIN_CLICKS`` clicking pulses each runs them on a thread pool, one
worker per CPU the process may use; numpy releases the GIL in the bulk
work.  The click tables are built on the calling thread first, so only
numpy runs on the pool.  A point draws its exponentials and its pattern
uniforms, and splits its clicks between the arms, ``DRAW_CHUNK`` at a
time, so no step holds a whole train of float64 draws or intp indices.
Its click train peaks at about 12 bytes per clicking pulse, as int64
indices while they narrow to int32, and the point at about 14, in the
first arm's dead-time veto.  That is about 4.8 MB per point in flight
when a third of 10^6 pulses click (thermal mu = 0.5).
Sparser scans run their points in a loop, since below the floor the
threads' overhead outweighs the work they share.

The same click table, taken at zero and at far delay, gives the model's
own dip visibility (``model_visibility``), the one multi-pair visibility
in the package.
"""
from __future__ import annotations

import concurrent.futures
import math
import numbers
import os
from dataclasses import dataclass, replace

import numpy as np

from .fock import (MAX_ENUMERATED_PAIRS, PAIR_STATISTICS,
                   arm_occupation_distribution, pair_number_probabilities)
from .hom import DelayScan, check_eta, spectral_overlap

# Expected clicking pulses per delay point from which a scan runs its points
# on a thread pool.  Per point of a 50-point scan, a loop and a 2-thread
# pool took on a 2-core Xeon (numpy 2.4) 0.7-1.2 and 1.2-1.3 ms at 11k
# clicks (reproduce-paper's points), 2.2-2.9 and 2.3 ms at 33k, 3.9-4.0
# and 2.6 ms at 50k, and 21-25 and 11-12 ms at 334k.
POOL_MIN_CLICKS = 30_000
# Exponentials or uniforms a delay point draws per call, and clicks it
# splits between the arms per call, so its float64 draws hold at most two
# such chunks, 1 MB, at a time.  A 335k-click bright point's train took
# 7.8 ms drawn at once and 5.0 ms in chunks of this size (one thread, min
# of 7, numpy 2.4, x86_64); a Generator yields the same stream either way.
DRAW_CHUNK = 1 << 16


@dataclass(frozen=True)
class SourceModel:
    """Pulsed pair source: mean pairs per pulse, pulses per run, and the
    pair-number statistics."""

    mean_pairs_per_pulse: float
    pulses_per_run: int = 1_000_000
    statistics: str = "poissonian-pairs"
    repetition_period_ns: float = 13.1

    def __post_init__(self):
        if not 0.0 <= self.mean_pairs_per_pulse < math.inf:
            raise ValueError("mean_pairs_per_pulse must be finite and "
                             "non-negative")
        # a bool is an Integral, and True would run one pulse
        if isinstance(self.pulses_per_run, bool) or \
                not isinstance(self.pulses_per_run, numbers.Integral):
            raise ValueError("pulses_per_run must be an integer")
        if self.pulses_per_run < 1:
            raise ValueError("pulses_per_run must be at least 1")
        if self.statistics not in PAIR_STATISTICS:
            raise ValueError(f"unknown pair statistics {self.statistics!r}")
        if not 0.0 < self.repetition_period_ns < math.inf:
            raise ValueError("repetition_period_ns must be finite and positive")


@dataclass(frozen=True)
class DetectorModel:
    """Identical threshold detectors on both arms."""

    efficiency: float = 1.0
    dead_time_ns: float = 0.0
    dark_count_probability: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError("efficiency must lie in [0, 1]")
        if not 0.0 <= self.dead_time_ns < math.inf:
            raise ValueError("dead_time_ns must be finite and non-negative")
        if not 0.0 <= self.dark_count_probability <= 1.0:
            raise ValueError("dark_count_probability must lie in [0, 1]")


def _click_pattern_probabilities(overlap, eta, source, detectors):
    """Per-pulse probabilities that only arm 1, both arms, and only arm 2
    click: [P1, P12, P2], dark counts included.

    Up to two pairs interfere exactly.  The rest of the pair-number mass is
    routed as three pairs with overlap 0, interference neglected: fully
    distinguishable photons keep or cross the splitter independently, so
    the enumeration gives the binomial routing.  An arm holding n photons
    clicks with probability 1 - (1 - efficiency)^n.  A dark count fires on
    each arm with probability d, independently of the photons and of the
    other arm, so it remaps the photon-only table [Q1, Q12, Q2], with
    Q0 = 1 - Q1 - Q12 - Q2 for no photon click, to

        P1 = Q1 (1 - d) + Q0 d (1 - d),
        P12 = Q12 + d (Q1 + Q2) + d^2 Q0,
        P2 = Q2 (1 - d) + Q0 d (1 - d).
    """
    pair_probs = pair_number_probabilities(source.mean_pairs_per_pulse,
                                           source.statistics,
                                           MAX_ENUMERATED_PAIRS)
    classes = [(n_pairs, pair_probs[n_pairs], overlap)
               for n_pairs in range(1, MAX_ENUMERATED_PAIRS + 1)]
    classes.append((MAX_ENUMERATED_PAIRS + 1, 1.0 - pair_probs.sum(), 0.0))
    weights, arm1, arm2 = [], [], []
    for n_pairs, weight, pair_overlap in classes:
        for (n1, n2), probability in arm_occupation_distribution(
                n_pairs, pair_overlap, eta).items():
            weights.append(weight * probability)
            arm1.append(n1)
            arm2.append(n2)

    weights = np.array(weights)
    efficiency = detectors.efficiency
    click1 = 1.0 - (1.0 - efficiency) ** np.array(arm1)
    click2 = 1.0 - (1.0 - efficiency) ** np.array(arm2)
    only1 = weights @ (click1 * (1.0 - click2))
    both = weights @ (click1 * click2)
    only2 = weights @ ((1.0 - click1) * click2)
    dark = detectors.dark_count_probability
    none = 1.0 - only1 - both - only2
    return np.array([only1 * (1.0 - dark) + none * dark * (1.0 - dark),
                     both + dark * (only1 + only2) + dark**2 * none,
                     only2 * (1.0 - dark) + none * dark * (1.0 - dark)])


def model_visibility(state, eta, source, detectors):
    """Dip visibility V = 1 - P12(0) / P12(inf) of the counting model.

    P12 is the per-pulse probability that both arms click, dark counts
    included, read from the click table with the overlap of ``state`` at
    zero delay and with no overlap at far delay.  The model neglects dead
    time.  Raises ``ValueError`` when P12(inf) is 0 (no dark counts, and
    no pairs or blind detectors).
    """
    zero, far = (_click_pattern_probabilities(overlap, eta, source,
                                              detectors)[1]
                 for overlap in (spectral_overlap(state, 0.0), 0.0))
    if far == 0.0:
        raise ValueError("no coincidences at far delay: without pairs, "
                         "efficiency or dark counts the visibility is "
                         "undefined")
    return float(1.0 - zero / far)


def _clicking_pulses(rng, n_pulses, probability):
    """Sorted indices of the pulses, among ``n_pulses``, where an event of
    the given probability happens independently on each pulse.

    The events are drawn as the geometric gaps of the Bernoulli process:
    each gap is floor(E / -log1p(-probability)) + 1 for a standard
    exponential E.  A batch covers the rest of the train with four
    standard deviations to spare; one that ends before the last pulse is
    followed by another.  Its int64 train is allocated once and filled
    from exponentials drawn ``DRAW_CHUNK`` at a time, by as many as each
    draw returns.
    """
    if probability <= 0.0:
        return np.empty(0, dtype=np.int64)
    if probability >= 1.0:
        return np.arange(n_pulses)
    rate = -math.log1p(-probability)
    batches, last = [], -1
    while last < n_pulses - 1:
        remaining = n_pulses - 1 - last
        expected = remaining * probability
        # remaining + 1 gaps of at least one pulse always pass the end
        size = min(math.ceil(expected + 4.0 * math.sqrt(expected)) + 1,
                   remaining + 1)
        train = np.empty(size, dtype=np.int64)
        filled = 0
        while filled < size:
            gaps = rng.standard_exponential(min(DRAW_CHUNK, size - filled))
            # a gap of n_pulses, or an infinite one at a denormal rate,
            # passes the end; the clamp keeps the cast and the sum inside
            # int64
            with np.errstate(over="ignore"):
                gaps /= rate
            np.minimum(gaps, n_pulses, out=gaps)
            train[filled:filled + gaps.size] = gaps
            filled += gaps.size
        train += 1
        train[0] += last
        np.cumsum(train, out=train)
        last = int(train[-1])
        batches.append(train)
    batches[-1] = train[:np.searchsorted(train, n_pulses)]
    return batches[0] if len(batches) == 1 else np.concatenate(batches)


def _apply_dead_time(clicks, blind_step):
    """Non-paralyzable veto on sorted, distinct click indices: after a
    counted click, the channel stays blind for the next blind_step - 1
    pulses.  Returns the mask of the counted clicks.

    Each click points to the first click outside its blind window (node
    ``clicks.size`` stands for past the end).  Distinct clicks leave room
    for at most blind_step - 1 others inside one window, so the pointer is
    found by that many shifted-slice comparisons, stopping once no window
    holds another click, or by one binary search per click.  One slice pass
    measured 1/14 to 1/29 of the binary search over 1e4 to 1e6 clicks
    (numpy 2.4, 2 cores), against log2 of the click count of 13 to 20, so
    the slices run while blind_step - 1 <= log2(clicks.size).

    A click after a gap of at least blind_step is counted, since no window
    reaches it, and starts a cluster; the cluster's counted clicks are the
    path of pointers from it to the next cluster's start.  Walkers from
    every start follow the pointers together, marking each click they
    reach, so the rounds are the counted clicks of the longest cluster, at
    most its L clicks.  When L^2 exceeds the click count, the
    pointers are first composed into a table that jumps 2^K counted clicks,
    K = floor(log2(L) / 2): walkers on it mark every 2^K-th counted click,
    and walkers from those marks the rest, in fewer than 3 sqrt(L) + 2
    rounds in all.
    """
    size = clicks.size
    if blind_step <= 1 or size == 0:
        return np.ones(size, dtype=bool)
    # a window reaching past the last click counts only the first one;
    # the clamp keeps clicks + blind_step inside int64
    blind_step = min(blind_step, int(clicks[-1]) + 1)
    reach = clicks + blind_step
    if blind_step - 1 <= math.log2(size):
        # int32: the slice sums ran twice as fast as with int64 (numpy 2.4);
        # one mask buffer serves every shift
        following = np.arange(1, size + 1, dtype=np.int32)
        inside = np.empty(size - 1, dtype=bool)
        for shift in range(1, blind_step):
            within = np.less(clicks[shift:], reach[:-shift],
                             out=inside[:size - shift])
            if not within.any():
                break
            following[:-shift] += within
        del inside
    else:
        following = np.searchsorted(clicks, reach).astype(np.int32)
    del reach
    # past the end counts as marked, so walkers stop there too
    counted = np.empty(size + 1, dtype=bool)
    counted[0] = counted[-1] = True
    np.greater_equal(np.diff(clicks), blind_step, out=counted[1:-1])
    starts = np.flatnonzero(counted[:-1])
    # the last cluster runs to the end; np.diff with append= would copy
    # starts, 0.6 MB more at a 220k-click arm's peak
    longest = max(int(np.diff(starts).max(initial=0)), size - int(starts[-1]))

    def walk(table, at):
        # the walkers' clicks, round by round, until each meets a marked one
        reached = [at]
        while at.size:
            at = table[at]
            at = at[~counted[at]]
            counted[at] = True
            reached.append(at)
        return reached

    if longest * longest <= size:
        walk(following, starts)
    else:
        # a pointer to a cluster's start ends past the end instead, so no
        # composed pointer leaves its cluster and the rounds stay bounded;
        # composing intp pointers ran three times as fast as int32 ones
        step = np.empty(size + 1, dtype=np.intp)
        step[:-1] = following
        step[-1] = size
        step[counted[step]] = size
        jump = step
        for _ in range((longest.bit_length() - 1) // 2):
            jump = jump[jump]
        walk(step, np.concatenate(walk(jump, starts)))
    return counted[:-1]


def _worker_count(points):
    """Threads for a pooled scan: the CPUs this process may run on, at most
    one per point."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, points))


def _arm_masks(rng, size, edges):
    """Which of ``size`` clicking pulses click arm 1 and which arm 2, from
    the cumulative click table ``edges`` [P1, P1 + P12, P(any)]: one
    uniform u per pulse, drawn ``DRAW_CHUNK`` at a time straight into the
    masks; u * P(any) below the second edge clicks arm 1, at or above the
    first edge arm 2, so both arms click between the two edges."""
    on1, on2 = np.empty(size, dtype=bool), np.empty(size, dtype=bool)
    pattern = np.empty(min(DRAW_CHUNK, size))
    for first in range(0, size, DRAW_CHUNK):
        chunk = rng.random(out=pattern[:min(DRAW_CHUNK, size - first)])
        chunk *= edges[-1]
        np.less(chunk, edges[1], out=on1[first:first + chunk.size])
        np.greater_equal(chunk, edges[0], out=on2[first:first + chunk.size])
    return on1, on2


def _select(mask, values):
    """``np.compress(mask, values)``, one ``DRAW_CHUNK`` at a time:
    ``compress`` builds an intp index per value it keeps, which over a
    whole bright arm was the peak of a point, 1.7 MB at 220k clicks.
    Boolean indexing builds none, but took four times as long."""
    selected = np.empty(np.count_nonzero(mask), dtype=values.dtype)
    end = 0
    for first in range(0, values.size, DRAW_CHUNK):
        part = np.compress(mask[first:first + DRAW_CHUNK],
                           values[first:first + DRAW_CHUNK])
        selected[end:end + part.size] = part
        end += part.size
    return selected


def _count_point(child_seed, edges, n_pulses, blind_step):
    """Coincidences of one delay point from its child seed and cumulative
    click table [P1, P1 + P12, P(any)]; numpy alone, safe on any thread."""
    rng = np.random.default_rng(child_seed)
    clicking = _clicking_pulses(rng, n_pulses, edges[-1])
    if n_pulses + blind_step <= np.iinfo(np.int32).max:
        # half the bytes per index; the dead-time veto adds blind_step to
        # an index, so that sum must fit too
        clicking = clicking.astype(np.int32)
    on1, on2 = _arm_masks(rng, clicking.size, edges)
    # each array is freed once used, to keep the points in flight small
    clicks1, clicks2 = _select(on1, clicking), _select(on2, clicking)
    del clicking
    counted1 = _apply_dead_time(clicks1, blind_step)
    del clicks1
    counted2 = _apply_dead_time(clicks2, blind_step)
    del clicks2
    # each arm's clicks where the other arm clicks too are the same pulses
    # in the same order
    return np.count_nonzero(np.compress(np.compress(on1, on2), counted1)
                            & np.compress(np.compress(on2, on1), counted2))


def simulate_counts(state, eta, source, detectors, delays_ps, seed=None):
    """Coincidence counts over a delay scan; returns a counts DelayScan.

    Every delay point runs the source's ``pulses_per_run`` pulses.
    ``seed`` is mandatory: identical inputs and seed give identical counts.
    ``delays_ps`` must be a delay axis that ``DelayScan`` accepts; a
    zero-valued scan is built, and so checked, before any point runs.
    """
    if seed is None:
        raise ValueError("seed is required for reproducible simulation")
    check_eta(eta)
    scan = DelayScan(delay_ps=delays_ps,
                     values=np.zeros(np.shape(delays_ps), dtype=np.int64))
    delays = scan.delay_ps
    n_pulses = source.pulses_per_run

    # a window past the last pulse counts as the whole run, which also
    # keeps an overflowing ratio out of ceil
    blind_step = max(1, math.ceil(min(detectors.dead_time_ns
                                      / source.repetition_period_ns,
                                      n_pulses)))

    # the tables call public fock and hom functions, which bench/tracer.py
    # times on one span stack, so they are built here, on the calling
    # thread, and only numpy runs on the pool
    tables = [np.cumsum(_click_pattern_probabilities(
        spectral_overlap(state, float(delay)), eta, source, detectors))
        for delay in delays]
    streams = np.random.SeedSequence(seed).spawn(delays.size)

    def count(child, edges):
        return _count_point(child, edges, n_pulses, blind_step)

    clicks = n_pulses * np.mean([edges[-1] for edges in tables])
    if clicks < POOL_MIN_CLICKS:
        counts = list(map(count, streams, tables))
    else:
        # concurrent.futures loads its thread module here, on first use,
        # so a CLI start that counts no bright scan never imports it
        with concurrent.futures.ThreadPoolExecutor(
                _worker_count(delays.size)) as pool:
            counts = list(pool.map(count, streams, tables))
    return replace(scan, values=np.array(counts, dtype=np.int64))
