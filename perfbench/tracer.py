"""Per-layer tracing from outside the program.

The tracer wraps the public functions of each ``chatterdetect`` layer and
re-binds every reference to them, so calls made through any module's
namespace are counted.  ``harness`` and ``cli`` import layer functions by
name, ``emd`` calls its own functions through its globals, and the trainers
that ``ml.make_trainer`` builds look up ``train_*`` in ``ml``'s globals: each
of those is a separate reference.  Nothing inside the package changes.

A wrapper records calls, inclusive time and self time.  Self time is the
wrapper's wall time minus the time spent in wrapped children.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# Layer -> functions traced in it.  "Class.method" entries are methods; a
# metric takes the name after the dot, so both predict methods share
# ``ml.predict``.
LAYERS = {
    "ingest": (
        "load_timeseries", "load_labels", "load_manifest", "design_lowpass",
        "filter_and_downsample", "cut_segments", "window_segments",
    ),
    "wavelet": ("wpt_decompose", "reconstruct_packet", "energy_ratios"),
    "features": ("wpt_features", "eemd_features"),
    "emd": ("eemd", "emd", "sift_imf", "envelope_mean", "find_extrema"),
    "ml": (
        "train_svm", "train_logistic", "train_forest", "train_boosting",
        "rfe_rank", "nested_feature_accuracies",
        "LinearModel.predict", "TreeEnsembleModel.predict",
    ),
    "harness": (
        "segments_from_manifest", "prepare_wpt_config", "prepare_eemd_config",
        "run_within", "run_transfer_combined", "emit_report",
    ),
    "cli": ("main",),
}

TRAINERS = ("ml.train_svm", "ml.train_logistic", "ml.train_forest", "ml.train_boosting")


def metric_name(layer, entry):
    return f"{layer}.{entry.rsplit('.', 1)[-1]}"


FUNCTIONS = tuple(
    dict.fromkeys(metric_name(layer, e) for layer, entries in LAYERS.items() for e in entries)
)


class Tracer:
    """Counts calls and times of the functions in LAYERS while installed."""

    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name in FUNCTIONS}  # calls, inclusive s, self s
        self._stack = []  # time spent in wrapped children, per open call
        self._undo = []
        self.reset()

    def reset(self):
        """Zero every count; wrappers keep their stat lists, so this works
        while installed."""
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0]
        self.rows_parsed = self.segment_samples = self.window_samples = 0
        self.prepared = []  # PreparedConfig results, in call order

    def _observe(self, name, args, result):
        if name == "ingest.load_timeseries":
            self.rows_parsed += result.samples.size
        elif name == "ingest.load_labels":
            self.rows_parsed += len(result)
        elif name == "ingest.window_segments":
            self.segment_samples += sum(s.series.samples.size for s in args[0])
            self.window_samples += sum(w.series.samples.size for w in result)
        elif name in ("harness.prepare_wpt_config", "harness.prepare_eemd_config"):
            self.prepared.append(result)

    def _wrap(self, name, fn):
        stat = self.stats[name]
        stack = self._stack
        observe = self._observe

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - children
            observe(name, args, result)
            return result

        return traced

    def install(self):
        """Wrap every function in LAYERS and re-bind all references to it."""
        package = [
            m for n, m in list(sys.modules.items())
            if n == "chatterdetect" or n.startswith("chatterdetect.")
        ]
        for layer, entries in LAYERS.items():
            # importlib, not `import chatterdetect.emd`: the package attribute
            # `chatterdetect.emd` is the emd function, not the module.
            module = importlib.import_module(f"chatterdetect.{layer}")
            for entry in entries:
                name = metric_name(layer, entry)
                if "." in entry:
                    cls_name, attr = entry.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    self._rebind(owner, attr, self._wrap(name, original))
                    continue
                original = getattr(module, entry)
                wrapper = self._wrap(name, original)
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, attr, wrapper)

    def _rebind(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def calls(self, name):
        return self.stats[name][0]

    def self_s(self, name):
        return self.stats[name][2]

    def snapshot(self):
        """Per-pass numbers: calls and self time of every function, plus the
        derived counters that need only this pass."""
        out = {}
        for name in FUNCTIONS:
            out[f"{name}.calls"] = self.calls(name)
            out[f"{name}.self_s"] = self.self_s(name)
        parse_s = self.self_s("ingest.load_timeseries") + self.self_s("ingest.load_labels")
        out["ingest.rows_parsed"] = self.rows_parsed
        out["ingest.rows_per_s"] = self.rows_parsed / parse_s if parse_s > 0 else 0.0
        out["ingest.window_kept_frac"] = (
            self.window_samples / self.segment_samples if self.segment_samples else 0.0
        )
        decompositions = self.calls("wavelet.wpt_decompose")
        out["wavelet.packets_per_segment"] = (
            self.calls("wavelet.reconstruct_packet") / decompositions if decompositions else 0.0
        )
        members = self.calls("emd.emd")
        out["emd.s_per_member"] = self.stats["emd.emd"][1] / members if members else 0.0
        return out
