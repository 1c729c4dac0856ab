"""Shared fixtures: the reference cross-section solved once per session."""

from __future__ import annotations

import time

import pytest

from lnhom.geometry import build_cross_section, reference_geometry
from lnhom.modes import solve_modes


@pytest.fixture(scope="session")
def pair_geometry():
    return reference_geometry(gap_um=2.3)


@pytest.fixture(scope="session")
def pair_map_20nm(pair_geometry):
    return build_cross_section(pair_geometry, 1550.0, grid_pitch_nm=20.0)


@pytest.fixture(scope="session")
def supermodes_20nm(pair_map_20nm):
    """Two lowest supermodes of the coupler cross-section at 20 nm pitch,
    solved once and shared; also records the wall time of the solve."""
    start = time.monotonic()
    modes = solve_modes(pair_map_20nm, 2)
    elapsed = time.monotonic() - start
    assert len(modes) == 2
    return {"modes": modes, "seconds": elapsed}
