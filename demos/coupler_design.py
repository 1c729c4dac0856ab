"""Design-space tour of the coupled-mode coupler model.

Builds a coupler from a measured beat length, solves for 50:50 interaction
lengths on the first two half-period branches, and tabulates the splitting
ratio across the 1540-1560 nm band for both designs.  Shows the bandwidth
cost of using a longer, higher-order coupling section.  Writes plot-ready
CSV into demo-output/coupler-design/.
"""

import pathlib

import numpy as np

from lnhom import io, reference
from lnhom.coupler import (CouplerDevice, length_for_ratio, splitting_ratio,
                           transfer_matrix)

OUT = pathlib.Path("demo-output/coupler-design")
# 1540-1560 nm in 0.1 nm steps
BAND_NM = np.arange(1540.0, 1560.0 + 0.05, 0.1)


def one_percent_bandwidth_nm(eta):
    """Width of the contiguous span of ``BAND_NM`` around its center where
    the ratio ``eta`` stays within 0.01 of balanced."""
    inside = np.abs(eta - 0.5) < 0.01
    center = BAND_NM.size // 2
    if not inside[center]:
        return 0.0
    left = center
    while left > 0 and inside[left - 1]:
        left -= 1
    right = center
    while right < inside.size - 1 and inside[right + 1]:
        right += 1
    return float(BAND_NM[right] - BAND_NM[left])


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
        print(f"  1% bandwidth: {one_percent_bandwidth_nm(band_eta):.1f} nm, "
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
