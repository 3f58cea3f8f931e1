"""Batch command-line interface.

Subcommands: preprocess, decompose, select, features, train,
evaluate-within, evaluate-transfer, report.  Any flag may also come from a
JSON config file given with --config, as an object keyed by flag name
("window-len" or "window_len").  File values are parsed exactly like flags
given before the command line's own, so a value of the wrong type or outside
a flag's choices is a usage error (exit 2), explicit flags override file
values, and keys that name no flag of the subcommand are ignored.  Required
flags must still appear on the command line.  On failure a machine-readable
error record is printed to stderr and the exit code is nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import harness
from .emd import EemdParams, eemd
from .errors import ChatterDetectError, DomainError, ValidationError
from .ingest import (
    design_lowpass,
    filter_and_downsample,
    load_manifest,
    load_timeseries,
    read_json,
)
from .ml import CLASSIFIER_ALIASES, make_trainer
from .wavelet import wpt_decompose


CLASSIFIERS = ["svm", "logreg", "forest", "boost"]


def build_parser():
    # flag groups that several subcommands share, attached as parents
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file supplying default flag values")
    common.add_argument("--out", default=".", help="output directory or file")

    decomposition = argparse.ArgumentParser(add_help=False)
    decomposition.add_argument("--method", choices=["wpt", "eemd"], required=True)
    decomposition.add_argument("--level", type=int, default=4)
    decomposition.add_argument("--ensemble-size", type=int, default=200)
    decomposition.add_argument("--noise-fraction", type=float, default=0.2)
    decomposition.add_argument("--seed", type=int, default=0)

    manifest = argparse.ArgumentParser(add_help=False)
    manifest.add_argument("--manifest", required=True)
    manifest.add_argument("--window-len", type=int, default=1000)
    manifest.add_argument(
        "--workers", type=int, default=1,
        help="accepted and ignored: EEMD runs in one thread, and its results "
             "are bitwise identical for any batch composition",
    )

    evaluation = argparse.ArgumentParser(add_help=False)
    evaluation.add_argument("--classifier", choices=CLASSIFIERS, required=True)
    evaluation.add_argument("--realizations", type=int, default=10)
    evaluation.add_argument("--grouped-split", action="store_true")

    parser = argparse.ArgumentParser(prog="chatterdetect")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", parents=[common],
                       help="low-pass filter and downsample a recording")
    p.add_argument("--input", required=True)
    p.add_argument("--sample-rate", type=float, required=True)
    p.add_argument("--target-rate", type=float, required=True)
    p.add_argument("--filter-order", type=int, default=100)
    p.add_argument("--cutoff", type=float, default=10000.0)

    p = sub.add_parser("decompose", parents=[common, decomposition],
                       help="dump wavelet packets or IMFs as CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--sample-rate", type=float, default=10000.0)

    for name in ("select", "features"):
        p = sub.add_parser(name, parents=[common, decomposition, manifest])
        p.add_argument("--stickout", required=True)

    p = sub.add_parser("train", parents=[common], help="fit one classifier on a feature CSV")
    p.add_argument("--features", required=True, help="feature matrix CSV with label column")
    p.add_argument("--classifier", choices=CLASSIFIERS, required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("evaluate-within", parents=[common, decomposition, manifest, evaluation])
    p.add_argument("--stickout", required=True)

    p = sub.add_parser("evaluate-transfer",
                       parents=[common, decomposition, manifest, evaluation])
    p.add_argument("--train-config", nargs="+", required=True)
    p.add_argument("--test-config", nargs="+", required=True)

    p = sub.add_parser("report", parents=[common],
                       help="re-emit CSV/text tables from a report JSON")
    p.add_argument("--input", required=True)

    return parser


def _parse_args(parser, argv):
    """Parse argv; values from a --config file enter as flags placed before
    argv, so they pass the same type and choice checks and explicit flags
    win.  Keys that name no flag of the subcommand are ignored."""
    args = parser.parse_args(argv)
    if not args.config:
        return args
    with open(args.config, "r", encoding="utf-8") as fh:
        try:
            values = json.load(fh)
        except ValueError as exc:
            parser.error(f"--config {args.config}: {exc}")
    if not isinstance(values, dict):
        parser.error(f"--config {args.config}: expected a JSON object")
    tokens = []
    for key, value in values.items():
        dest = key.replace("-", "_")
        if dest in ("command", "config") or not hasattr(args, dest):
            continue
        flag = "--" + dest.replace("_", "-")
        if isinstance(getattr(args, dest), bool) and isinstance(value, bool):
            tokens += [flag] if value else []  # a store_true flag
        elif isinstance(value, list):
            tokens += [flag, *map(str, value)]
        else:
            tokens.append(f"{flag}={value}")
    return parser.parse_args([argv[0], *tokens, *argv[1:]])


def _eemd_params(args):
    return EemdParams(
        ensemble_size=args.ensemble_size,
        noise_std_fraction=args.noise_fraction,
        master_seed=args.seed,
    )


def _cmd_preprocess(args):
    ts = load_timeseries(args.input, args.sample_rate)
    filt = design_lowpass(args.filter_order, args.cutoff, args.sample_rate)
    try:
        out = filter_and_downsample(ts, filt, args.target_rate)
    except DomainError as exc:
        raise DomainError(f"{args.input}: {exc}") from None
    path = Path(args.out)
    if path.is_dir():
        path = path / (Path(args.input).stem + "_preprocessed.csv")
    # one %-format over all rows; the same bytes as np.savetxt, which
    # formats row by row
    values = out.samples.tolist()
    path.write_text(("%.18e\n" * len(values)) % tuple(values), encoding="utf-8")
    print(json.dumps({"output": str(path), "n_samples": int(out.samples.size),
                      "sample_rate_hz": out.sample_rate_hz}))


def _cmd_decompose(args):
    ts = load_timeseries(args.input, args.sample_rate)
    path = Path(args.out)
    if args.method == "wpt":
        tree = wpt_decompose(ts, args.level)
        if path.is_dir():
            path = path / (Path(args.input).stem + "_packets.csv")
        with open(path, "w", encoding="utf-8") as fh:
            for level in range(1, args.level + 1):
                for j in range(1, 2**level + 1):
                    coeffs = ",".join(f"{c:.12g}" for c in tree.packet(level, j))
                    fh.write(f"{level},{j},{coeffs}\n")
    else:
        imfs = eemd(ts.samples, _eemd_params(args))
        if path.is_dir():
            path = path / (Path(args.input).stem + "_imfs.csv")
        cols = [np.asarray(c) for c in imfs.imfs] + [imfs.residue]
        header = ",".join([f"imf{i + 1}" for i in range(imfs.n_imfs)] + ["residue"])
        np.savetxt(path, np.column_stack(cols), delimiter=",", header=header,
                   comments="")
    print(json.dumps({"output": str(path)}))


def _prepare(args, stickout_ids):
    """Prepare each stickout configuration from one load of the manifest."""
    manifest = load_manifest(args.manifest)
    eemd_params = _eemd_params(args) if args.method == "eemd" else None
    return [
        harness.prepare_from_manifest(
            manifest, sid, args.method, level=args.level,
            window_len=args.window_len, eemd_params=eemd_params,
        )
        for sid in stickout_ids
    ]


def _select_all(args):
    """The stickout's prepared config and its selection from every
    chatter-labeled sample."""
    [prepared] = _prepare(args, [args.stickout])
    return prepared, prepared.select(range(len(prepared.samples)))


def _cmd_select(args):
    _, selection = _select_all(args)
    record = {"stickout_id": args.stickout, "method": args.method, **selection}
    path = Path(args.out)
    if path.is_dir():
        path = path / f"selection_{args.stickout}_{args.method}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    print(json.dumps({"output": str(path), "index": selection["index"]}))


def _cmd_features(args):
    prepared, selection = _select_all(args)
    X = prepared.feature_rows(range(len(prepared.samples)), selection)
    path = Path(args.out)
    if path.is_dir():
        path = path / f"features_{args.stickout}_{args.method}.csv"
    header = ",".join(list(harness.FEATURE_NAMES[args.method]) + ["label"])
    np.savetxt(path, np.column_stack([X, prepared.labels]), delimiter=",",
               header=header, comments="")
    print(json.dumps({"output": str(path), "n_samples": int(X.shape[0])}))


def _cmd_train(args):
    table = np.genfromtxt(args.features, delimiter=",", names=True)
    names = list(table.dtype.names or ())
    if "label" not in names:
        raise ValidationError(
            f"{args.features}: no 'label' column (columns: {', '.join(names)})"
        )
    if names == ["label"]:
        raise ValidationError(f"{args.features}: no feature column besides 'label'")
    labels = np.atleast_1d(table["label"])
    bad = np.flatnonzero((labels != 0) & (labels != 1))
    if bad.size:
        raise ValidationError(
            f"{args.features}: data row {bad[0] + 1} has label {labels[bad[0]]}, not 0 or 1")
    y = labels.astype(int)
    X = np.column_stack([table[c] for c in names if c != "label"])
    model = make_trainer(args.classifier, seed=args.seed)(X, y)
    path = Path(args.out)
    if path.is_dir():
        path = path / f"model_{args.classifier}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model.to_dict(), fh)
    train_acc = float(np.mean(model.predict(X) == y))
    print(json.dumps({"output": str(path), "train_accuracy": train_acc}))


def _spec(args, mode, train_configs, test_configs):
    split = harness.WITHIN_SPLIT if mode == "within" else harness.TRANSFER_SPLIT
    return harness.ExperimentSpec(
        method=args.method,
        classifier=CLASSIFIER_ALIASES.get(args.classifier, args.classifier),
        train_configs=tuple(train_configs),
        test_configs=tuple(test_configs),
        mode=mode,
        level=args.level,
        window_len=args.window_len,
        n_realizations=args.realizations,
        split=split,
        master_seed=args.seed,
        grouped_split=args.grouped_split,
    )


def _cmd_evaluate_within(args):
    spec = _spec(args, "within", [args.stickout], [args.stickout])
    [prepared] = _prepare(args, [args.stickout])
    report = harness.run_within(spec, prepared)
    path = harness.emit_report(
        report, args.out, f"within_{args.stickout}_{args.method}_{args.classifier}"
    )
    print(json.dumps({"output": str(path), "best": report.best_row()}))


def _cmd_evaluate_transfer(args):
    combined = len(args.train_config) == 2
    spec = _spec(args, "transfer-combined" if combined else "transfer",
                 args.train_config, args.test_config)
    if combined:
        prepared = _prepare(args, args.train_config + args.test_config)
        report = harness.run_transfer_combined(spec, prepared[:2], prepared[2:])
    else:
        train, test = _prepare(args, [args.train_config[0], args.test_config[0]])
        report = harness.run_transfer(spec, train, test)
    tag = "-".join(args.train_config) + "_to_" + "-".join(args.test_config)
    path = harness.emit_report(
        report, args.out, f"transfer_{tag}_{args.method}_{args.classifier}"
    )
    print(json.dumps({"output": str(path), "best": report.best_row()}))


def _cmd_report(args):
    doc = read_json(args.input)
    if not isinstance(doc, dict):
        raise ValidationError(f"{args.input}: a report is an object, not {type(doc).__name__}")
    try:
        report = harness.ExperimentReport.from_dict(doc)
        path = harness.emit_report(report, args.out, Path(args.input).stem)
    except KeyError as exc:
        raise ValidationError(f"{args.input}: report has no {exc.args[0]!r} key") from None
    except ValidationError as exc:
        raise ValidationError(f"{args.input}: {exc}") from None
    print(json.dumps({"output": str(path)}))


_COMMANDS = {
    "preprocess": _cmd_preprocess,
    "decompose": _cmd_decompose,
    "select": _cmd_select,
    "features": _cmd_features,
    "train": _cmd_train,
    "evaluate-within": _cmd_evaluate_within,
    "evaluate-transfer": _cmd_evaluate_transfer,
    "report": _cmd_report,
}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = _parse_args(parser, argv)
        _COMMANDS[args.command](args)
    except ChatterDetectError as exc:
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 1
    except OSError as exc:
        sys.stderr.write(json.dumps(
            {"error": "IOError", "message": str(exc)}) + "\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
