"""Every benchmark workload config parses against its scenario's schema: a
renamed or removed config key would otherwise make each benchmark run exit
2 instead of measuring anything."""

import importlib.util
import sys
from pathlib import Path

import pytest

from lnhom.cli import SCENARIO_SCHEMAS, parse_config_text

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    # registered under its file name while it runs: run.py imports its
    # sibling tracer.py as a top-level module, and dataclasses look their
    # module up in sys.modules
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


try:
    _load("tracer")
    WORKLOADS = _load("run").WORKLOADS
finally:
    for _name in ("tracer", "run"):
        sys.modules.pop(_name, None)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_config_parses_against_its_schema(name):
    workload = WORKLOADS[name]
    parse_config_text(workload.config.format(seed=1),
                      SCENARIO_SCHEMAS[workload.scenario], source=name)
