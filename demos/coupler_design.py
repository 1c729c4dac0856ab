"""Design-space tour of the coupled-mode coupler model.

Builds a coupler from a measured beat length, solves for 50:50 interaction
lengths on the first two half-period branches, and tabulates the splitting
ratio across the 1540-1560 nm band for both designs.  Shows the bandwidth
cost of using a longer, higher-order coupling section, each 1% bandwidth
measured over 1460-1640 nm.  Writes plot-ready CSV into
demo-output/coupler-design/.
"""

import pathlib

import numpy as np

from lnhom import io, reference
from lnhom.coupler import (CouplerDevice, length_for_ratio, splitting_ratio,
                           transfer_matrix)

OUT = pathlib.Path("demo-output/coupler-design")
# 1540-1560 nm in 0.1 nm steps
BAND_NM = np.arange(1540.0, 1560.0 + 0.05, 0.1)
# 1460-1640 nm in 0.25 nm steps, centred on 1550 nm: wider than the 1%
# band of either design, about 39.5 nm at order 0
WIDE_NM, WIDE_STEP_NM = np.linspace(1460.0, 1640.0, 721, retstep=True)


def one_percent_bandwidth_nm(eta):
    """Width of the 1% band of the ratio ``eta`` over ``WIDE_NM``, one grid
    step per sample within 0.01 of balanced, as ``reproduce-paper`` counts
    it.  Raises ``RuntimeError`` if the band reaches the grid's edge, where
    the width would be clipped."""
    inside = np.abs(eta - 0.5) < 0.01
    if inside[0] or inside[-1]:
        raise RuntimeError("the 1% band reaches the edge of WIDE_NM")
    return float(np.count_nonzero(inside) * WIDE_STEP_NM)


def main():
    OUT.mkdir(parents=True, exist_ok=True)

    device = CouplerDevice(
        reference.COUPLING_LENGTH_UM,
        reference_wavelength_nm=reference.CHARACTERIZATION_WAVELENGTH_NM,
    )
    print(f"beat length {device.coupling_length_um} um at "
          f"{device.reference_wavelength_nm:.0f} nm")

    for order in (0, 1):
        length = length_for_ratio(device, 0.5, order)
        eta = splitting_ratio(device, 1550.0, length)
        print(f"order {order}: 50:50 at L_I = {length:.2f} um "
              f"(eta = {eta:.6f})")

        band_eta = splitting_ratio(device, BAND_NM, length)
        io.write_splitting_curve_csv(OUT / f"balanced_order{order}.csv",
                                     BAND_NM, band_eta)
        width = one_percent_bandwidth_nm(splitting_ratio(device, WIDE_NM,
                                                         length))
        print(f"  1% bandwidth: {width:.2f} nm, "
              f"edge deviation {abs(band_eta[0] - 0.5):.6f}")

    # the characterized device: longer section plus bends, partway up a
    # higher branch instead of a balanced design
    device = reference.reference_device()
    length = reference.INTERACTION_LENGTH_UM
    wavelength = reference.CHARACTERIZATION_WAVELENGTH_NM
    eta = splitting_ratio(device, wavelength, length)
    print(f"characterized device: L_I = {length:.0f} um, "
          f"bend offset = {device.bend_offset_um:.2f} um, eta = {eta:.3f}")
    matrix = transfer_matrix(device, wavelength, length)
    gram = matrix.conj().T @ matrix
    print(f"  transfer matrix unitarity defect: "
          f"{np.abs(gram - np.eye(2)).max():.2e}")

    io.write_splitting_curve_csv(OUT / "characterized_device.csv", BAND_NM,
                                 splitting_ratio(device, BAND_NM, length))
    print(f"wrote {len(list(OUT.iterdir()))} CSV files to {OUT}")


if __name__ == "__main__":
    main()
