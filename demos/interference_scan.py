"""Two-photon interference from the ideal dip to simulated raw counts.

Walks the visibility budget of a coincidence measurement on the
characterized coupler: the ceiling set by its 54.6 % splitting ratio, the
penalty from imperfect source indistinguishability, the further penalty
from multi-pair emission seen through the detectors (the counting model's
own visibility, dead time neglected), and finally a seeded Monte Carlo
scan with detection efficiency and dead time whose fitted visibility lands
on that model value.  Writes CSV into demo-output/interference/.
"""

import pathlib

import numpy as np

from lnhom import io, reference
from lnhom.counting import model_visibility, simulate_counts
from lnhom.fitting import fit_gaussian_dip, normalized_scan
from lnhom.hom import (TwoPhotonState, coincidence_curve, combined_visibility,
                       hom_visibility_max)

OUT = pathlib.Path("demo-output/interference")
SEED = 7
DELAYS_PS = np.linspace(*reference.DELAY_RANGE_PS, 50)


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    eta = reference.SPLITTING_RATIO

    # ideal dips: perfectly indistinguishable pair on a balanced splitter,
    # then on the measured one
    perfect = TwoPhotonState(reference.PHOTON_WAVELENGTH_NM,
                             reference.PHOTON_BANDWIDTH_FWHM_NM)
    for label, ratio in (("balanced", 0.5), ("measured", eta)):
        scan = coincidence_curve(perfect, ratio, DELAYS_PS)
        io.write_delay_scan_csv(OUT / f"ideal_dip_{label}.csv", scan)

    # same state, pair rate and detectors as the characterized run
    state = reference.reference_photon_pair()
    source = reference.reference_source()
    detectors = reference.reference_detectors()
    budget = [("splitter ceiling", hom_visibility_max(eta)),
              ("with source overlap",
               combined_visibility(reference.SOURCE_VISIBILITY, eta)),
              ("with pairs, detectors",
               model_visibility(state, eta, source, detectors))]
    for label, value in budget:
        print(f"{label:22s} {value:.4f}")

    # raw counts with the full detection chain
    counts = simulate_counts(state, eta, source, detectors, DELAYS_PS,
                             seed=SEED)
    io.write_delay_scan_csv(OUT / "counts.csv", counts)

    fit = fit_gaussian_dip(counts)
    io.write_fit_report(OUT / "dip_fit.txt", fit)
    io.write_delay_scan_csv(OUT / "counts_normalized.csv",
                            normalized_scan(counts, fit))
    fitted = fit.parameters["visibility"]
    sigma = fit.uncertainties["visibility"]
    print(f"{'fitted from counts':22s} {fitted:.4f} +/- {sigma:.4f}")
    print(f"wrote {len(list(OUT.iterdir()))} artifacts to {OUT}")


if __name__ == "__main__":
    main()
