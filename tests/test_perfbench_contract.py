"""What the benchmark under perfbench/ reads from the package.

The tracer wraps functions by name and the benchmark reads fields of the
prepared samples, so a rename in the package would break a traced run
(`perfbench/run.py --trace 1`) without failing any other test.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

from chatterdetect.harness import PreparedConfig, PreparedSample

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("layer, entry", [
    (layer, entry) for layer, entries in load_tracer().LAYERS.items() for entry in entries
])
def test_traced_function_resolves(layer, entry):
    module = importlib.import_module(f"chatterdetect.{layer}")
    if "." in entry:
        cls_name, attr = entry.split(".")
        assert callable(vars(getattr(module, cls_name))[attr])
    else:
        assert callable(getattr(module, entry))


def test_prepared_fields_read_by_the_benchmark():
    sample = {f.name for f in dataclasses.fields(PreparedSample)}
    assert {"packet_features", "imf_features"} <= sample
    assert {"config", "method", "samples"} <= {f.name for f in dataclasses.fields(PreparedConfig)}
