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
from lnhom.coupler import (CouplerDevice, bandwidth_scan, length_for_ratio,
                           splitting_ratio, transfer_matrix,
                           with_interaction_length)

OUT = pathlib.Path("demo-output/coupler-design")


def one_percent_bandwidth_nm(curve):
    """Width of the contiguous wavelength span around the center where the
    ratio stays within 0.01 of balanced."""
    inside = np.abs(curve.eta - 0.5) < 0.01
    center = curve.wavelength_nm.size // 2
    if not inside[center]:
        return 0.0
    left = center
    while left > 0 and inside[left - 1]:
        left -= 1
    right = center
    while right < inside.size - 1 and inside[right + 1]:
        right += 1
    return float(curve.wavelength_nm[right] - curve.wavelength_nm[left])


def main():
    OUT.mkdir(parents=True, exist_ok=True)

    template = CouplerDevice(
        reference.COUPLING_LENGTH_UM,
        reference_wavelength_nm=reference.CHARACTERIZATION_WAVELENGTH_NM,
    )
    print(f"beat length {template.coupling_length_um} um at "
          f"{template.reference_wavelength_nm:.0f} nm")

    for order in (0, 1):
        length = length_for_ratio(template, 0.5, order)
        device = with_interaction_length(template, length)
        eta = splitting_ratio(device, 1550.0)
        print(f"order {order}: 50:50 at L_I = {length:.2f} um "
              f"(eta = {eta:.6f})")

        curve = bandwidth_scan(device, 1540.0, 1560.0, 0.1)
        io.write_splitting_curve_csv(OUT / f"balanced_order{order}.csv", curve)
        print(f"  1% bandwidth: {one_percent_bandwidth_nm(curve):.1f} nm, "
              f"edge deviation {abs(curve.eta[0] - 0.5):.6f}")

    # the characterized device: longer section plus bends, partway up a
    # higher branch instead of a balanced design
    device = reference.reference_device()
    eta = splitting_ratio(device, reference.CHARACTERIZATION_WAVELENGTH_NM)
    print(f"characterized device: L_I = {device.interaction_length_um:.0f} um, "
          f"bend offset = {device.bend_offset_um:.2f} um, eta = {eta:.3f}")
    matrix = transfer_matrix(device, reference.CHARACTERIZATION_WAVELENGTH_NM)
    gram = matrix.conj().T @ matrix
    print(f"  transfer matrix unitarity defect: "
          f"{np.abs(gram - np.eye(2)).max():.2e}")

    curve = bandwidth_scan(device, 1540.0, 1560.0, 0.1)
    io.write_splitting_curve_csv(OUT / "characterized_device.csv", curve)
    print(f"wrote {len(list(OUT.iterdir()))} CSV files to {OUT}")


if __name__ == "__main__":
    main()
