"""Acceptance gate: one test per headline claim, each at its stated
tolerance, each printing the measured value next to the demand.

Run with -v for the per-claim pass/fail table; the printed lines carry the
computed numbers.
"""

import math
import time

import numpy as np
import pytest

from lnhom import materials
from lnhom import reference as ref
from lnhom.coupler import length_for_ratio, splitting_ratio, transfer_matrix
from lnhom.counting import model_visibility, simulate_counts
from lnhom.fitting import (PowerRatioSeries, coupling_length_statistics,
                           fabry_perot_fringes, fabry_perot_loss,
                           fit_coupling_sinusoid, fit_gaussian_dip,
                           fresnel_reflectivity, fringe_contrast)
from lnhom.fock import arm_occupation_distribution
from lnhom.geometry import IndexMap, reference_geometry
from lnhom.hom import DelayScan, combined_visibility, hom_visibility_max
from lnhom.modes import (PARITY_ANTISYMMETRIC, PARITY_SYMMETRIC,
                         guided_mode_count, solve_modes)

import _oracles as oracle


def _line(label, computed, demand):
    print(f"{label}: computed {computed}; demand {demand}")


@pytest.fixture(scope="module")
def reproduction_scan_fit():
    """Counting simulation at the published operating point (10^6 pulses per
    point, 50 delay points, canonical seed), fitted once and shared."""
    start = time.monotonic()
    scan = simulate_counts(
        ref.reference_photon_pair(), ref.SPLITTING_RATIO,
        ref.reference_source(), ref.reference_detectors(),
        np.linspace(-8.0, 8.0, 50), seed=12345)
    fit = fit_gaussian_dip(scan)
    return {"fit": fit, "seconds": time.monotonic() - start}


def test_acceptance_01_visibility_ceiling_spot_values():
    balanced = hom_visibility_max(0.5)
    measured_ratio = hom_visibility_max(0.546)
    _line("ceiling at eta 0.5", balanced, "1 exactly")
    _line("ceiling at eta 0.546", measured_ratio, "0.9832 +/- 0.0002")
    assert balanced == 1.0
    assert abs(measured_ratio - 0.9832) <= 2e-4


def test_acceptance_02_visibility_budget():
    budget = combined_visibility(0.9801, 0.546)
    _line("source times splitter", budget, "0.9636 +/- 0.0005")
    assert abs(budget - 0.9636) <= 5e-4


def test_acceptance_03_coupling_length_statistics():
    mean, spread = coupling_length_statistics([114.85, 110.87])
    _line("two-port mean (um)", mean, "112.86 at two decimals")
    _line("two-port spread (um)", spread, "2.82 +/- 0.01")
    assert round(mean, 2) == 112.86
    # sample spread is 2.8143, one unit of the last quoted decimal away
    assert abs(spread - 2.82) <= 0.01


def test_acceptance_04_beat_length_fit_recovery_and_calibration():
    start = time.monotonic()
    rng = np.random.default_rng(2468)
    lengths = np.linspace(*ref.INTERACTION_LENGTH_SERIES_UM, 12)
    true_lc = 112.86
    clean = np.sin(0.5 * math.pi * (lengths + 20.0) / true_lc) ** 2

    noisy = np.clip(clean + rng.normal(0.0, 0.01, lengths.size), 0.0, 1.0)
    single = fit_coupling_sinusoid(PowerRatioSeries(lengths, noisy))
    recovered = single.parameters["coupling_length_um"]
    _line("recovered beat length (um)", recovered, "112.86 within 1%")
    assert abs(recovered - true_lc) / true_lc < 0.01

    estimates, claims = [], []
    for _ in range(200):
        noisy = np.clip(clean + rng.normal(0.0, 0.01, lengths.size), 0.0, 1.0)
        fit = fit_coupling_sinusoid(PowerRatioSeries(lengths, noisy))
        estimates.append(fit.parameters["coupling_length_um"])
        claims.append(fit.uncertainties["coupling_length_um"])
    ratio = float(np.median(claims)) / float(np.std(estimates, ddof=1))
    _line("claimed over observed sigma", ratio, "within factor 2")
    assert 0.5 < ratio < 2.0

    elapsed = time.monotonic() - start
    _line("runtime (s)", round(elapsed, 2), "< 10")
    assert elapsed < 10.0


def test_acceptance_05_dip_visibility_recovery(reproduction_scan_fit):
    start = time.monotonic()
    delays = np.linspace(-8.0, 8.0, 41)
    dip = 1.0 - 0.935 * np.exp(-(delays**2) / (2.0 * 1.2**2))
    noiseless = fit_gaussian_dip(DelayScan(delays, dip))
    recovered = noiseless.parameters["visibility"]
    _line("noiseless dip visibility", recovered, "0.935 within 1e-4")
    assert abs(recovered - 0.935) <= 1e-4

    predicted = model_visibility(
        ref.reference_photon_pair(), ref.SPLITTING_RATIO,
        ref.reference_source(), ref.reference_detectors())
    fitted = reproduction_scan_fit["fit"].parameters["visibility"]
    sigma = reproduction_scan_fit["fit"].uncertainties["visibility"]
    _line("simulated-scan visibility", f"{fitted} +/- {sigma}",
          f"{predicted} within 3 sigma")
    assert abs(fitted - predicted) <= 3.0 * sigma

    elapsed = reproduction_scan_fit["seconds"] + (time.monotonic() - start)
    _line("runtime (s)", round(elapsed, 2), "< 120")
    assert elapsed < 120.0


def test_acceptance_06_facet_fringe_loss_roundtrip():
    facet = fresnel_reflectivity(1.9)
    phase = np.linspace(0.0, 2.0 * math.pi, 2001)
    fringes = fabry_perot_fringes(phase, 4.85, 1.0, facet)
    recovered = fabry_perot_loss(fringe_contrast(fringes), facet, 1.0)
    _line("loss from fringe contrast (dB/cm)", recovered, "4.85 within 0.2%")
    assert abs(recovered - 4.85) / 4.85 < 0.002


def test_acceptance_07_mode_solver_oracle_and_device_geometry(supermodes_20nm):
    start = time.monotonic()
    # analytic 1D slab check on an x-uniform slab 2 um wide: between its
    # zero-field edges each mode is a slab mode times a sine along x, so
    # its y part, n_eff^2 plus the x eigenvalue over k0^2, is the slab index
    n_core = float(materials.lithium_niobate_extraordinary(1550.0))
    n_clad = float(materials.silica(1550.0))
    pitch, pad, columns = 20.0, 3000.0, 101
    ny = int((600.0 + 2 * pad) / pitch)
    y = -pad + (np.arange(ny) + 0.5) * pitch
    profile = np.where((y >= 0.0) & (y < 600.0), n_core, n_clad)
    slab = IndexMap(index=np.tile(profile[:, None], (1, columns)),
                    x_nm=(np.arange(columns) - columns // 2) * pitch,
                    y_nm=y, pitch_nm=pitch, wavelength_nm=1550.0,
                    substrate_index=n_clad)
    along_x, along_y = oracle.layered_spectrum(profile, columns, pitch, 1550.0)
    total = along_x[:, None] + along_y[None, :]
    k0 = 2.0 * math.pi / 1550.0
    slab_parts = {}
    for solution in solve_modes(slab, 4):
        beta2 = (k0 * solution.n_eff) ** 2
        j, mode = np.unravel_index(np.abs(total - beta2).argmin(), total.shape)
        assert abs(beta2 - total[j, mode]) <= 1e-10 * beta2
        slab_parts.setdefault(int(mode), math.sqrt(beta2 - along_x[j]) / k0)
    assert sorted(slab_parts) == [0, 1]
    for mode, n_y in slab_parts.items():
        analytic = oracle.slab_n_eff(n_core, n_clad, n_clad, 600.0, 1550.0,
                                     mode=mode)
        _line(f"slab mode {mode} n_eff", n_y, f"{analytic} within 1e-3")
        assert abs(n_y - analytic) < 1e-3

    count = guided_mode_count(reference_geometry(), 1550.0, grid_pitch_nm=20.0)
    _line("guided modes of the single rib", count, "exactly 1")
    assert count == 1

    sym, anti = supermodes_20nm["modes"]
    beat_um = 1550.0 / (2.0 * (sym.n_eff - anti.n_eff)) / 1000.0
    _line("simulated beat length (um)", beat_um, "in [90, 180]")
    assert 90.0 <= beat_um <= 180.0

    elapsed = supermodes_20nm["seconds"] + (time.monotonic() - start)
    _line("runtime (s)", round(elapsed, 2), "< 300 at 20 nm pitch")
    assert elapsed < 300.0


def test_acceptance_08_design_bandwidth():
    start = time.monotonic()
    device = ref.reference_device()
    order0 = length_for_ratio(device, 0.5, 0)
    eta0 = splitting_ratio(device, np.linspace(1540.0, 1560.0, 81), order0)
    flatness = float(np.max(np.abs(eta0 - 0.5)))
    _line("order-0 max |eta - 0.5| over 1540-1560 nm", flatness, "< 0.01")
    assert flatness < 0.01

    order1 = length_for_ratio(device, 0.5, 1)
    widths = []
    for length in (order0, order1):
        eta = splitting_ratio(device, np.linspace(1460.0, 1640.0, 721), length)
        widths.append(0.25 * int(np.count_nonzero(np.abs(eta - 0.5) < 0.01)))
    _line("1% bandwidth order 0 vs 1 (nm)", tuple(widths),
          "strictly narrower at order 1")
    assert widths[1] < widths[0]

    elapsed = time.monotonic() - start
    _line("runtime (s)", round(elapsed, 2), "< 30")
    assert elapsed < 30.0


def test_acceptance_09_property_suites_and_measured_bracket(
        reproduction_scan_fit, supermodes_20nm):
    fitted = reproduction_scan_fit["fit"].parameters["visibility"]
    _line("simulated raw visibility", fitted,
          "in [0.93, 0.985] (brackets 0.935 and 0.9636)")
    assert 0.93 <= fitted <= 0.985

    worst_unitarity = 0.0
    for length in (0.0, 56.43, 257.0, 1000.0):
        for wl in (1460.0, 1550.0, 1640.0):
            u = transfer_matrix(ref.reference_device(), wl, length)
            worst_unitarity = max(worst_unitarity, float(np.max(np.abs(
                u.conj().T @ u - np.eye(2)))))
    _line("transfer-matrix unitarity defect", worst_unitarity, "< 1e-12")
    assert worst_unitarity < 1e-12

    worst_total = 0.0
    for n_pairs in (1, 2):
        for overlap in (0.0, 0.9801, 1.0):
            dist = arm_occupation_distribution(n_pairs, overlap, 0.546)
            worst_total = max(worst_total, abs(sum(dist.values()) - 1.0))
    _line("pattern-probability conservation defect", worst_total, "< 1e-9")
    assert worst_total < 1e-9

    for eta in (0.5, 0.52, 0.546, 0.6, 0.75, 0.25):
        assert hom_visibility_max(eta) == hom_visibility_max(1.0 - eta)
    _line("ceiling symmetry eta vs 1 - eta", "bit-equal", "exact")

    delays = np.linspace(-2.0, 2.0, 5)
    args = (ref.reference_photon_pair(), 0.5,
            ref.reference_source(pulses_per_run=20_000),
            ref.reference_detectors(), delays)
    np.testing.assert_array_equal(
        simulate_counts(*args, seed=31415).values,
        simulate_counts(*args, seed=31415).values)
    _line("seeded counting reproducibility", "bit-equal", "bit-exact")

    sym, anti = supermodes_20nm["modes"]
    _line("supermode ordering", (sym.parity, anti.parity),
          "symmetric first, higher index")
    assert sym.parity == PARITY_SYMMETRIC
    assert anti.parity == PARITY_ANTISYMMETRIC
    assert sym.n_eff > anti.n_eff
