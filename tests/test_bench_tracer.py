"""The benchmark tracer's table of expected names stays in step with the
package: a renamed or deleted function would make its per-layer metrics
read 0 without any error."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("lnhom_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


EXPECTED = _load_tracer().EXPECTED


@pytest.mark.parametrize("layer", sorted(EXPECTED))
def test_every_expected_name_is_a_callable_of_its_layer(layer):
    module = importlib.import_module(f"lnhom.{layer}")
    for name in EXPECTED[layer]:
        assert callable(getattr(module, name, None)), f"lnhom.{layer}.{name}"
