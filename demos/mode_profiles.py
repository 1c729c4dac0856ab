"""Mode solving at demo speed: rib modes, supermodes and the beat length.

Solves the single rib to confirm it carries exactly one laterally
confined mode, then the coupled pair for its symmetric/antisymmetric
supermodes, and turns the index splitting into a coupler beat length.
Runs at a coarsened 40 nm pitch, where the whole script computes in
about 0.2 s; production accuracy needs the 10 nm library default, where the
rib's fundamental mode takes about 0.2 s and the coupler's two
supermodes about 0.5 s on two cores.  Field maps land in
demo-output/modes/.
"""

import pathlib
import time

from lnhom import io
from lnhom.coupler import CouplerDevice
from lnhom.geometry import build_cross_section, reference_geometry
from lnhom.modes import (coupling_length_from_indices, guided_mode_count,
                         solve_modes)

OUT = pathlib.Path("demo-output/modes")
PITCH_NM = 40.0
WAVELENGTH_NM = 1550.0


def main():
    OUT.mkdir(parents=True, exist_ok=True)

    single = reference_geometry()
    start = time.perf_counter()
    count = guided_mode_count(single, WAVELENGTH_NM, grid_pitch_nm=PITCH_NM)
    print(f"single rib: {count} laterally confined mode(s) "
          f"[{time.perf_counter() - start:.1f} s]")

    pair = reference_geometry(gap_um=2.3)
    index_map = build_cross_section(pair, WAVELENGTH_NM,
                                    grid_pitch_nm=PITCH_NM)
    io.write_field_csv(OUT / "index_map.csv", index_map.x_nm, index_map.y_nm,
                       index_map.index)

    start = time.perf_counter()
    sym, anti = solve_modes(index_map, 2)
    elapsed = time.perf_counter() - start
    for name, mode in (("symmetric", sym), ("antisymmetric", anti)):
        print(f"{name}: n_eff = {mode.n_eff:.6f} ({mode.parity})")
        io.write_mode_field_csv(OUT / f"supermode_{name}.csv", index_map,
                                mode)

    beat = coupling_length_from_indices(sym.n_eff, anti.n_eff, WAVELENGTH_NM)
    print(f"beat length {beat:.1f} um from the supermode splitting "
          f"[{elapsed:.1f} s]")

    device = CouplerDevice(beat, reference_wavelength_nm=WAVELENGTH_NM)
    print(f"coupler model built from the solver: kappa = "
          f"{device.coupling_rate_per_um(WAVELENGTH_NM):.5f} rad/um")
    print(f"wrote {len(list(OUT.iterdir()))} CSV files to {OUT}")


if __name__ == "__main__":
    main()
