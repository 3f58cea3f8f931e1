"""What the benchmark under perfbench/ reads from the package.

The tracer wraps functions by name and the benchmark reads fields of the
prepared samples, so a rename in the package would break a traced run
(`perfbench/run.py --trace 1`) without failing any other test.  The last
test runs the tracer and the benchmark's own feature-row count on a small
prepared config.
"""

import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from chatterdetect import ExperimentSpec, harness
from chatterdetect.harness import PreparedConfig, PreparedSample
from synthetic_corpus import make_config, make_segments

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def load_module(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load_module("perfbench_tracer", TRACER)


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


def test_traced_wpt_run_counts_the_rows_it_reads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports its tracer by name
    run = load_module("perfbench_run", PERFBENCH / "run.py")
    tracer = run.Tracer()
    tracer.install()
    try:
        prepared = harness.prepare_wpt_config(make_config(), make_segments(seed=0), 3)
        spec = ExperimentSpec("logistic", n_realizations=3)
        report = harness.run_within(spec, prepared).to_dict()
    finally:
        tracer.uninstall()
    assert len(tracer.prepared) == 1 and tracer.prepared[0] is prepared
    picks = {log["selection"]["index"] for log in report["realizations"]}
    assert all(s.packet_features.shape == (8, 14) for s in prepared.samples)
    used = run.used_feature_rows(tracer.prepared, report)
    assert used == len(prepared.samples) * len(picks)
    snap = tracer.snapshot()
    assert snap["wavelet.wpt_decompose.calls"] == len(prepared.samples)
    assert snap["features.wpt_features.calls"] == snap["wavelet.reconstruct_packet.calls"]
    assert 0 < snap["features.wpt_features.calls"] <= used
