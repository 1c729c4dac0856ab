"""Exact few-photon statistics for multi-pair emission at the splitter.

A pulse carrying n pairs puts n signal photons into arm 1 and n idlers
into arm 2.  With I the pairwise indistinguishability, each idler lies in
the signals' internal mode with amplitude sqrt(I) and in an orthogonal
mode otherwise.  Writing t = sqrt(1 - eta) and r = sqrt(eta), a signal
keeps arm 1 with amplitude t and an idler crosses into it with amplitude
-i r.  The output photon numbers per arm then follow in closed form in
three steps:

1. k ~ Binomial(n, I) idlers share the signals' mode.  Terms of different
   k stay orthogonal, because the splitter conserves the photon number in
   the orthogonal mode.
2. The n signals and k matched idlers interfere as a two-mode
   beam-splitter problem: p of them leave in arm 1 with probability
   S^2 C(n+k, n) / C(n+k, p), where
   S = sum_j (-1)^j C(n, j) C(k, p-j) t^(k-p+2j) r^(n+p-2j)
   (Campos, Saleh & Teich, Phys. Rev. A 40, 1371 (1989)).
3. The other n - k idlers route independently: q ~ Binomial(n - k, eta)
   of them cross into arm 1, so arm 1 holds p + q photons.

``lnhom.counting`` weights these distributions up to MAX_ENUMERATED_PAIRS
pairs with the pair-number statistics below and turns photon numbers into
threshold-detector clicks, so that click table is the one multi-pair
model, at any mean pair number.  The three-plus tail goes through the same
function as MAX_ENUMERATED_PAIRS + 1 pairs with zero overlap: fully
distinguishable photons keep or cross the splitter independently, so
there it is binomial routing.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

from .hom import check_eta

MAX_ENUMERATED_PAIRS = 2

PAIR_STATISTICS = ("poissonian-pairs", "thermal-pairs")


def pair_number_probabilities(mu, statistics="poissonian-pairs", max_pairs=2):
    """P(n pairs) for n = 0..max_pairs under the chosen emission statistics.

    The returned entries deliberately do not sum to 1; the tail mass sits in
    n > max_pairs.
    """
    if not 0.0 <= mu < math.inf:
        raise ValueError("mean pair number must be finite and non-negative")
    if statistics == "poissonian-pairs":
        probs = np.zeros(max_pairs + 1)
        probs[0] = math.exp(-mu)
        for k in range(1, max_pairs + 1):
            probs[k] = probs[k - 1] * mu / k
        return probs
    if statistics == "thermal-pairs":
        n = np.arange(max_pairs + 1)
        return mu**n / (1.0 + mu) ** (n + 1)
    raise ValueError(f"unknown pair statistics {statistics!r}")


def arm_occupation_distribution(n_pairs, indistinguishability, eta=0.5):
    """Photon numbers per output arm of an n-pair pulse, internal modes
    summed out: {(n_arm1, n_arm2): probability}."""
    if not 0.0 <= indistinguishability <= 1.0:
        raise ValueError("indistinguishability must lie in [0, 1]")
    check_eta(eta)
    if n_pairs < 0:
        raise ValueError("n_pairs must be non-negative")
    n, t, r = n_pairs, math.sqrt(1.0 - eta), math.sqrt(eta)
    dist = defaultdict(float)
    for k in range(n + 1):
        split = (math.comb(n, k) * indistinguishability**k
                 * (1.0 - indistinguishability) ** (n - k))
        for p in range(n + k + 1):
            s = sum((-1) ** j * math.comb(n, j) * math.comb(k, p - j)
                    * t ** (k - p + 2 * j) * r ** (n + p - 2 * j)
                    for j in range(max(0, p - k), min(n, p) + 1))
            matched = s * s * math.comb(n + k, n) / math.comb(n + k, p)
            for q in range(n - k + 1):
                prob = split * matched * math.comb(n - k, q) * eta**q \
                    * (1.0 - eta) ** (n - k - q)
                if prob > 0.0:
                    dist[(p + q, 2 * n - p - q)] += prob
    return dict(dist)
