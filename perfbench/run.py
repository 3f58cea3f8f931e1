"""Pipeline benchmark for chatterdetect.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload eemd_within --seed 1 --seconds 55 --trace 0

Each run imports ``chatterdetect`` from ``src/``, generates its inputs from
``--seed`` into a fresh directory under ``.perfbench_work/``, and then, in
this one process, runs the workload's sequence of CLI commands through
``chatterdetect.cli.main(argv)`` again and again until ``--seconds`` have
passed.  One pass is one closed-loop client: each command starts after the
previous one returns, and every command runs with ``--workers 1``.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics; see ``perfbench/README.md``.  Every command's output is
checked; the last line of standard output is the result record.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from tracer import LAYERS, TRAINERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Lowest acceptable best-row test accuracy; chance is 0.5 on every workload.
# Over 20 seeds eemd_within, the hardest, gave 0.70 to 0.97.
ACC_FLOOR = 0.6
# Fresh interpreters that time the package import, besides this process.
FRESH_IMPORTS = 2
# The program's own seed (splits, tree draws) stays fixed, so every workload
# seed meets the same splits over the same strata of its inputs; see corpus.py.
PROGRAM_SEED = "0"

WPT_FEATURES = 14
EEMD_FEATURES = 7


def _import_program():
    """Import chatterdetect from this checkout; return the seconds it took."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    importlib.import_module("chatterdetect")
    cli = importlib.import_module("chatterdetect.cli")
    elapsed = time.perf_counter() - t0
    if Path(cli.__file__).resolve().parents[1] != SRC:
        raise ImportError(f"chatterdetect imported from {cli.__file__}, not {SRC}")
    return cli, elapsed


_FRESH_IMPORT = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import chatterdetect, chatterdetect.cli\n"
    "print(time.perf_counter() - t0)\n"
)


def _fresh_import_s():
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_IMPORT, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def _probe_s():
    """Fixed work independent of the program, to show machine speed drift."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    a = np.arange(100_000, dtype=float)
    for _ in range(30):
        a = np.sqrt(a + 1.0)
    return time.perf_counter() - t0


def _probe():
    return statistics.median(_probe_s() for _ in range(3))


def _generate(generator, **kwargs):
    """Run a corpus.py generator in a child interpreter, so that input
    generation adds nothing to this process's peak RSS."""
    spec = json.dumps({"generator": generator, **kwargs})
    proc = subprocess.run(
        [sys.executable, str(HERE / "corpus.py"), spec],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["result"], out["sizes"]


def _machine():
    import numpy
    import scipy

    model = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# one pass of a workload


class CommandFailed(Exception):
    pass


def report_digest(report):
    """SHA-256 of a report's to_dict(), in canonical JSON."""
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def used_feature_rows(prepared, report):
    """Feature rows of the prepared configs that some realization's
    selected component actually reads."""
    chosen = {}
    for log in report["realizations"]:
        sel = log["selection"]
        for sid, s in ([(None, sel)] if "index" in sel else sel.items()):
            chosen.setdefault(sid, set()).add(s["index"])
    used = 0
    for p in prepared:
        picks = chosen.get(p.config.stickout_id, chosen.get(None, set()))
        for s in p.samples:
            rows = (s.packet_features if p.method == "wpt" else s.imf_features).shape[0]
            used += sum(1 for j in picks if j <= rows)
    return used


class Pass:
    """Runs CLI commands in-process and checks each one's output."""

    def __init__(self, cli, tracer=None):
        self.cli = cli
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.digests = []
        self.best = []
        self.realizations = 0
        self.used_rows = 0

    def _main(self, argv):
        self.attempted += 1
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(argv)  # looked up per call: the tracer re-binds it
        if code != 0:
            raise CommandFailed(f"exit code {code}")
        return json.loads(out.getvalue().strip().splitlines()[-1])

    def _fail(self, argv, exc):
        self.failed += 1
        self.errors.append(f"{argv[0]}: {''.join(traceback.format_exception_only(exc)).strip()}")

    def preprocess(self, argv, n_samples):
        try:
            result = self._main(argv)
            rows = Path(result["output"]).read_bytes().count(b"\n")
            if result["n_samples"] != n_samples or rows != n_samples:
                raise CommandFailed(
                    f"expected {n_samples} samples, got {result['n_samples']} ({rows} rows)"
                )
        except Exception as exc:  # a failed command is counted; the pass goes on
            self._fail(argv, exc)

    def evaluate(self, argv, n_features):
        mark = len(self.tracer.prepared) if self.tracer else 0
        try:
            result = self._main(argv)
            with open(result["output"], encoding="utf-8") as fh:
                report = json.load(fh)
            ks = [row["k"] for row in report["per_k"]]
            if ks != list(range(1, n_features + 1)) or len(report["feature_names"]) != n_features:
                raise CommandFailed(f"expected one per_k row per feature (1..{n_features}), got {ks}")
            best = max(row["mean_test"] for row in report["per_k"])
            if best != result["best"]["mean_test"] or not 0.0 <= best <= 1.0:
                raise CommandFailed(f"best row {result['best']} disagrees with the report")
        except Exception as exc:  # a failed command is counted; the pass goes on
            self._fail(argv, exc)
            return
        self.digests.append(report_digest(report))
        self.best.append(best)
        self.realizations += report["n_realizations"]
        if self.tracer:
            self.used_rows += used_feature_rows(self.tracer.prepared[mark:], report)


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Workload:
    sizes: dict  # input sizes, recorded in the details
    samples: int  # classification samples carried through preparation per pass
    run: Callable  # run(pass_) runs one pass of commands
    called: tuple  # traced functions that must record calls
    idle: tuple  # traced functions that must record none


EMD = ("emd.eemd", "emd.emd", "emd.sift_imf", "emd.envelope_mean", "emd.find_extrema")
TREES = ("ml.train_forest", "ml.train_boosting")
WPT_PATH = (
    "ingest.load_timeseries", "ingest.load_labels", "ingest.load_manifest",
    "ingest.cut_segments", "wavelet.wpt_decompose", "wavelet.reconstruct_packet",
    "wavelet.energy_ratios", "features.wpt_features", "ml.rfe_rank",
    "ml.nested_feature_accuracies", "ml.predict", "harness.segments_from_manifest",
    "harness.prepare_wpt_config", "harness.emit_report", "cli.main",
)

# Chatter tone amplitudes start at zero, so the classes overlap.  On WPT
# they stay near the noise: tree nodes rarely turn pure, so forest and
# boosting grow full trees and take about the same time on every seed.
# EEMD features need a stronger tone to stay well above the accuracy floor.
WPT_WITHIN = {"segments": 48, "seg_len": 2000, "tone_amp": (0.0, 0.3), "realizations": 1}
EEMD_WITHIN = {"segments": 16, "seg_len": 2000, "tone_amp": (0.0, 0.5), "window_len": 1000,
               "ensemble_size": 4, "realizations": 10}
RAW_TRANSFER = {"files_per_config": 5, "duration_s": 0.8, "realizations": 2}


def wpt_within(work, seed, corpus):
    """Paper's headline study: WPT features, one configuration, all four
    classifiers; the ml layer does most of the work."""
    p = WPT_WITHIN
    manifest, sizes = _generate(
        "segments", out_dir=str(work / "data"), seed=seed, n_segments=p["segments"],
        seg_len=p["seg_len"], tone_amp=p["tone_amp"],
    )
    classifiers = ("svm", "logreg", "forest", "boost")

    def run(pass_):
        for clf in classifiers:
            pass_.evaluate(
                ["evaluate-within", "--manifest", manifest, "--stickout", "2",
                 "--method", "wpt", "--level", "4", "--classifier", clf,
                 "--realizations", str(p["realizations"]), "--seed", PROGRAM_SEED,
                 "--workers", "1", "--out", str(work / "reports")],
                WPT_FEATURES,
            )

    sizes.update(windows=0, ensemble_size=0, features=WPT_FEATURES,
                 realizations=p["realizations"] * len(classifiers))
    return Workload(
        sizes, len(classifiers) * sizes["segments"], run,
        called=WPT_PATH + ("ml.train_svm", "ml.train_logistic") + TREES + ("harness.run_within",),
        idle=EMD,
    )


def eemd_within(work, seed, corpus):
    """EEMD sifting dominates; the logistic classifier is cheap."""
    p = EEMD_WITHIN
    manifest, sizes = _generate(
        "segments", out_dir=str(work / "data"), seed=seed, n_segments=p["segments"],
        seg_len=p["seg_len"], tone_amp=p["tone_amp"],
    )

    def run(pass_):
        pass_.evaluate(
            ["evaluate-within", "--manifest", manifest, "--stickout", "2",
             "--method", "eemd", "--window-len", str(p["window_len"]),
             "--ensemble-size", str(p["ensemble_size"]), "--classifier", "logreg",
             "--realizations", str(p["realizations"]), "--seed", PROGRAM_SEED,
             "--workers", "1", "--out", str(work / "reports")],
            EEMD_FEATURES,
        )

    windows = sizes["segments"] * (p["seg_len"] // p["window_len"])
    sizes.update(windows=windows, ensemble_size=p["ensemble_size"],
                 features=EEMD_FEATURES, realizations=p["realizations"])
    return Workload(
        sizes, windows, run,
        called=EMD + (
            "ingest.load_timeseries", "ingest.load_labels", "ingest.load_manifest",
            "ingest.cut_segments", "ingest.window_segments", "features.eemd_features",
            "ml.train_logistic", "ml.rfe_rank", "ml.nested_feature_accuracies",
            "ml.predict", "harness.segments_from_manifest", "harness.prepare_eemd_config",
            "harness.run_within", "harness.emit_report", "cli.main",
        ),
        idle=("wavelet.wpt_decompose", "features.wpt_features") + TREES,
    )


def raw_transfer(work, seed, corpus):
    """Raw 160 kHz recordings through preprocess, then combined transfer with
    a linear SVM: ingest parses and filters most of the time."""
    p = RAW_TRANSFER
    recordings, sizes = _generate(
        "raw", out_dir=str(work / "raw"), seed=seed,
        files_per_config=p["files_per_config"], duration_s=p["duration_s"],
    )
    pre = work / "preprocessed"
    pre.mkdir()
    n_out = int(round(p["duration_s"] * corpus.FS))
    configs = list(corpus.CONFIGS)

    def run(pass_):
        for _, sig, _, _ in recordings:
            pass_.preprocess(
                ["preprocess", "--input", sig, "--sample-rate", str(corpus.RAW_FS),
                 "--target-rate", str(corpus.FS), "--cutoff", "4500", "--out", str(pre)],
                n_out,
            )
        manifest = corpus.write_preprocessed_manifest(work, recordings, pre)
        pass_.evaluate(
            ["evaluate-transfer", "--manifest", str(manifest),
             "--train-config", *configs[:2], "--test-config", *configs[2:],
             "--method", "wpt", "--classifier", "svm",
             "--realizations", str(p["realizations"]), "--seed", PROGRAM_SEED,
             "--workers", "1", "--out", str(work / "reports")],
            WPT_FEATURES,
        )

    sizes.update(windows=0, ensemble_size=0, features=WPT_FEATURES,
                 realizations=p["realizations"])
    return Workload(
        sizes, sizes["segments"], run,
        called=WPT_PATH + (
            "ingest.design_lowpass", "ingest.filter_and_downsample", "ml.train_svm",
            "harness.run_transfer_combined",
        ),
        idle=EMD + TREES,
    )


# BENCHMARK.json declares eemd_within and raw_transfer only.  wpt_within's
# forest and boosting fits stop early wherever a node turns pure, so its pass
# time varies by about 12% from seed to seed on top of the machine's own
# drift; its wall time spread across seeds came to 0.23-0.28 of the median.
# It stays runnable for traced runs, whose call counts are exact.
WORKLOADS = {"wpt_within": wpt_within, "eemd_within": eemd_within, "raw_transfer": raw_transfer}


# ---------------------------------------------------------------------------
# the run


def run_passes(cli, workload, seconds, tracer):
    """Passes until the next one would end after `seconds`; at least one, and
    with a tracer at least two: untraced and traced passes alternate,
    starting untraced.  The machine probe is timed before the first pass
    and after each pass."""
    passes = []
    probes = [_probe()]
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        pass_ = Pass(cli, tracer if traced else None)
        t0 = time.perf_counter()
        try:
            workload.run(pass_)
        finally:
            wall = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        passes.append({"traced": traced, "wall_s": wall, "pass": pass_,
                       "trace": tracer.snapshot() if traced else None,
                       "prepared": [len(p.samples) for p in tracer.prepared] if traced else None})
        probes.append(_probe())
        enough = len(passes) >= (2 if tracer else 1)
        if enough and time.perf_counter() - start + wall > seconds:
            return passes, probes


def layer_metrics(workload, passes):
    """Per-layer metrics from the traced passes (medians over passes)."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    problems = []
    for p in traced:
        snap = p["trace"]
        problems += [f"{n} recorded no calls" for n in workload.called if snap[f"{n}.calls"] == 0]
        problems += [f"{n} recorded calls" for n in workload.idle if snap[f"{n}.calls"] != 0]
        if sum(p["prepared"]) != workload.samples:
            problems.append(f"prepared {sum(p['prepared'])} samples, expected {workload.samples}")
        run = p["pass"]
        computed = snap["features.wpt_features.calls"] + snap["features.eemd_features.calls"]
        snap["features.useful_frac"] = run.used_rows / computed if computed else 0.0
        fits = sum(snap[f"{n}.calls"] for n in TRAINERS)
        snap["ml.fits_per_realization"] = fits / run.realizations if run.realizations else 0.0
        snap["harness.realizations"] = run.realizations
    metrics = {
        key: statistics.median(p["trace"][key] for p in traced) for key in traced[0]["trace"]
    }
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    plain_wall = statistics.median(p["wall_s"] for p in plain)
    metrics["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall
    shares = {}
    for layer in LAYERS:
        self_s = sum(v for k, v in metrics.items()
                     if k.startswith(layer + ".") and k.endswith(".self_s"))
        shares[layer] = self_s / traced_wall
    return metrics, shares, problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        cli, import_s = _import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import chatterdetect from {SRC}: {exc}", file=sys.stderr)
        return 1
    setup = [import_s]
    if not args.trace:
        setup += [_fresh_import_s() for _ in range(FRESH_IMPORTS)]

    import corpus  # after the timed import: it loads numpy

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        t0 = time.perf_counter()
        workload = WORKLOADS[args.workload](work, args.seed, corpus)
        generate_s = time.perf_counter() - t0
        tracer = Tracer() if args.trace else None
        passes, probes = run_passes(cli, workload, args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    runs = [p["pass"] for p in passes]
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    errors = sorted({e for r in runs for e in r.errors})
    digests = [r.digests for r in runs]
    best = [b for r in runs for b in r.best]
    best_acc = min(best) if best else 0.0
    deterministic = all(d == digests[0] for d in digests)
    correct = failed == 0 and deterministic and best_acc >= ACC_FLOOR
    if not deterministic:
        errors.append("report digests differ between passes")
    if best_acc < ACC_FLOOR:
        errors.append(f"best_test_acc {best_acc} below the floor {ACC_FLOOR}")

    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": _machine(), "probe_s": probes,
        "sizes": workload.sizes, "samples_per_pass": workload.samples,
        "setup_s": setup, "generate_s": generate_s, "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_traced": [p["traced"] for p in passes],
        "report_sha256": digests[0], "best_test_acc": best_acc, "errors": errors,
    }
    if args.trace:
        metrics, shares, problems = layer_metrics(workload, passes)
        if problems:
            print("perfbench: the traced run missed a layer: " + "; ".join(sorted(set(problems))),
                  file=sys.stderr)
            return 2
        metrics["failed_frac"] = failed / attempted
        details["layer_self_share"] = shares
        units = {"calls": "count", "self_s": "s", "rows_parsed": "count",
                 "rows_per_s": "1/s", "window_kept_frac": "fraction",
                 "packets_per_segment": "count", "useful_frac": "fraction",
                 "s_per_member": "s", "fits_per_realization": "count",
                 "realizations": "count", "overhead_frac": "fraction",
                 "failed_frac": "fraction"}
        out = {k: {"value": v, "unit": units[k.rsplit(".", 1)[-1]]} for k, v in metrics.items()}
    else:
        wall = statistics.median(p["wall_s"] for p in passes)
        out = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "samples_per_s": {"value": workload.samples / wall, "unit": "1/s"},
            "best_test_acc": {"value": best_acc, "unit": "fraction"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
