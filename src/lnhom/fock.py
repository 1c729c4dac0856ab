"""Exact few-photon enumeration for multi-pair emission at the splitter.

A pulse carrying n pairs puts n photons into each input arm.  Partial
distinguishability is handled with two internal modes per arm: the idler
creation operator is split as

    b+ = lam * (matched mode) + sqrt(1 - lam^2) * (orthogonal mode),

with lam^2 = I the pairwise indistinguishability.  The splitter mixes the
arms mode-by-mode with the -i cross phase; expanding the resulting
creation-operator polynomial over the four output modes gives every output
occupation amplitude exactly, and summing out the internal modes gives the
photon numbers per output arm.  The enumeration runs up to
MAX_ENUMERATED_PAIRS pairs; ``lnhom.counting`` weights it with the
pair-number statistics below and turns photon numbers into
threshold-detector clicks, so that click table is the one multi-pair
model, at any mean pair number.  The three-plus tail goes through the
same enumeration as MAX_ENUMERATED_PAIRS + 1 pairs with zero overlap:
fully distinguishable photons keep or cross the splitter independently,
so there it is binomial routing.
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
    if mu < 0:
        raise ValueError("mean pair number must be non-negative")
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


def _poly_multiply(p, q):
    out = defaultdict(complex)
    for occ1, c1 in p.items():
        for occ2, c2 in q.items():
            key = tuple(a + b for a, b in zip(occ1, occ2))
            out[key] += c1 * c2
    return out


def _pair_state_polynomial(n_pairs, amplitude_overlap, eta):
    """Creation-operator polynomial of the n-pair output state over the four
    modes (arm1-matched, arm1-orth, arm2-matched, arm2-orth)."""
    t = math.sqrt(1.0 - eta)
    r = math.sqrt(eta)
    lam = amplitude_overlap
    ortho = math.sqrt(max(0.0, 1.0 - lam * lam))
    signal_out = {(1, 0, 0, 0): t + 0j, (0, 0, 1, 0): -1j * r}
    idler_out = {
        (1, 0, 0, 0): -1j * r * lam,
        (0, 0, 1, 0): t * lam + 0j,
        (0, 1, 0, 0): -1j * r * ortho,
        (0, 0, 0, 1): t * ortho + 0j,
    }
    poly = {(0, 0, 0, 0): 1.0 + 0j}
    for _ in range(n_pairs):
        poly = _poly_multiply(poly, signal_out)
        poly = _poly_multiply(poly, idler_out)
    norm = 1.0 / math.factorial(n_pairs)
    return {occ: c * norm for occ, c in poly.items()}


def arm_occupation_distribution(n_pairs, indistinguishability, eta=0.5):
    """Photon numbers per output arm of an n-pair pulse, internal modes
    summed out: {(n_arm1, n_arm2): probability}."""
    if not 0.0 <= indistinguishability <= 1.0:
        raise ValueError("indistinguishability must lie in [0, 1]")
    check_eta(eta)
    if n_pairs < 0:
        raise ValueError("n_pairs must be non-negative")
    poly = _pair_state_polynomial(n_pairs, math.sqrt(indistinguishability),
                                  eta)
    dist = defaultdict(float)
    for occ, coeff in poly.items():
        prob = abs(coeff) ** 2 * math.prod(math.factorial(k) for k in occ)
        if prob > 0.0:
            n0, n1, n2, n3 = occ
            dist[(n0 + n1, n2 + n3)] += prob
    return dict(dist)
