"""The headless demos run to completion against the library as it stands,
so removing or renaming API they call fails here, and write their files
with LF line endings."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import lnhom

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
SOURCE_ROOT = str(Path(lnhom.__file__).resolve().parents[1])


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SOURCE_ROOT, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    # every written file keeps the LF line endings of lnhom.io
    for path in tmp_path.rglob("*"):
        if path.is_file():
            assert b"\r\n" not in path.read_bytes(), path
