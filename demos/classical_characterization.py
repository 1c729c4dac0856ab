"""Classical characterization workflow: coupling fit and loss extraction.

Synthesizes the two measurements used to characterize a coupler with a
probe laser, then runs them back through the fitting module:

 1. cross/bar power ratios for a series of interaction lengths, with
    multiplicative noise, fitted per port by the sinusoidal coupling
    model; per-port beat lengths are combined into mean +/- spread;
 2. facet-cavity transmission fringes at a known propagation loss, whose
    contrast is inverted back to dB/cm.

Writes CSV artifacts into demo-output/characterization/.
"""

import csv
import pathlib

import numpy as np

from lnhom import io, reference
from lnhom.coupler import splitting_ratio
from lnhom.fitting import (PowerRatioSeries, coupling_length_statistics,
                           fabry_perot_fringes, fabry_perot_loss,
                           fit_coupling_sinusoid, fresnel_reflectivity,
                           fringe_contrast)

OUT = pathlib.Path("demo-output/characterization")
NOISE = 0.01
SEED = 20240814


def synthetic_port_series(rng):
    """Independently noisy cross- and bar-port fractions for 12 fabricated
    interaction lengths of the same device."""
    lengths = np.linspace(*reference.INTERACTION_LENGTH_SERIES_UM, 12)
    cross = splitting_ratio(reference.reference_device(),
                            reference.CHARACTERIZATION_WAVELENGTH_NM, lengths)

    def noisy(clean):
        jitter = 1.0 + NOISE * rng.standard_normal(clean.size)
        return np.clip(clean * jitter, 0.0, 1.0)

    return {"a": PowerRatioSeries(lengths, noisy(cross)),
            "b": PowerRatioSeries(lengths, noisy(1.0 - cross))}


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(SEED)

    by_port = synthetic_port_series(rng)
    io.write_power_ratio_csv(OUT / "power_ratio.csv", by_port["a"])

    per_port = []
    for port, data in by_port.items():
        fit = fit_coupling_sinusoid(data)
        length = fit.parameters["coupling_length_um"]
        sigma = fit.uncertainties["coupling_length_um"]
        per_port.append(length)
        print(f"port {port}: beat length {length:.2f} +/- {sigma:.2f} um "
              f"(rms residual {fit.residual_rms:.4f})")
        io.write_fit_report(OUT / f"coupling_fit_port_{port}.txt", fit)

    mean, spread = coupling_length_statistics(per_port)
    print(f"combined: {mean:.2f} +/- {spread:.2f} um "
          f"(generator value {reference.COUPLING_LENGTH_UM})")

    # loss inversion round trip at the measured chip loss
    reflectivity = fresnel_reflectivity(1.9)
    phase = np.linspace(0.0, 4.0 * np.pi, 2001)
    fringes = fabry_perot_fringes(
        phase, reference.PROPAGATION_LOSS_DB_PER_CM, 1.0, reflectivity)
    with open(OUT / "fringes.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["phase_rad", "transmission"])
        writer.writerows(zip(phase.tolist(), fringes.tolist()))
    contrast = fringe_contrast(fringes)
    loss = fabry_perot_loss(contrast, reflectivity, 1.0)
    print(f"fringe contrast {contrast:.4f} -> loss {loss:.3f} dB/cm "
          f"(generator value {reference.PROPAGATION_LOSS_DB_PER_CM})")


if __name__ == "__main__":
    main()
