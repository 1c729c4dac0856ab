"""The headless demos run to completion against the library as it stands,
so removing or renaming API they call fails here, and write their files
with LF line endings."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lnhom

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
SOURCE_ROOT = str(Path(lnhom.__file__).resolve().parents[1])


def _run(demo, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SOURCE_ROOT, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(demo)], cwd=cwd, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    _run(demo, tmp_path)
    # every written file keeps the LF line endings of lnhom.io
    for path in tmp_path.rglob("*"):
        if path.is_file():
            assert b"\r\n" not in path.read_bytes(), path


def test_coupler_design_bandwidth_is_not_clipped(tmp_path):
    # eta = sin^2(theta) with theta linear in the wavelength, pi/4 at
    # 1550 nm for the order-0 design, so its 1% band spans asin(0.02)
    # 1550 / (pi / 4) = 39.47 nm, twice the 1540-1560 nm CSV window
    (demo,) = [path for path in DEMOS if path.stem == "coupler_design"]
    widths = re.findall(r"1% bandwidth: ([0-9.]+) nm",
                        _run(demo, tmp_path))
    exact = math.asin(0.02) * 1550.0 / (math.pi / 4.0)
    assert float(widths[0]) == pytest.approx(exact, abs=0.25)
