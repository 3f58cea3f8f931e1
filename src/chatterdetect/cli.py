"""Batch command-line interface.

Subcommands: preprocess, decompose, select, features, train,
evaluate-within, evaluate-transfer, report.  Any flag may also come from a
JSON config file given with --config, as an object keyed by flag name
("window-len" or "window_len").  File values are parsed exactly like flags
given before the command line's own, so a value of the wrong type or outside
a flag's choices is a usage error (exit 2), explicit flags override file
values, and keys that name no flag of the subcommand are ignored; a file may
supply every flag, required ones too.  On failure a machine-readable error
record is printed to stderr and the exit code is nonzero.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
import warnings
from pathlib import Path

import numpy as np

from . import harness
from .emd import EemdParams, eemd
from .errors import ChatterDetectError, DomainError, ParseError, ValidationError
from .ingest import (
    design_lowpass,
    filter_and_downsample,
    load_manifest,
    load_timeseries,
    read_json,
)
from .ml import CLASSIFIERS, make_trainer
from .wavelet import wpt_decompose


def build_parser():
    # flag groups that several subcommands share, attached as parents
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file supplying default flag values")
    common.add_argument("--out", default=".", help="output directory or file")

    decomposition = argparse.ArgumentParser(add_help=False)
    decomposition.add_argument("--method", choices=harness.FEATURE_NAMES, required=True)
    decomposition.add_argument("--level", type=int, default=4)
    decomposition.add_argument("--ensemble-size", type=int, default=200)
    decomposition.add_argument("--noise-fraction", type=float, default=0.2)
    decomposition.add_argument("--seed", type=int, default=0)

    manifest = argparse.ArgumentParser(add_help=False)
    manifest.add_argument("--manifest", required=True)
    manifest.add_argument("--window-len", type=int, default=1000)
    manifest.add_argument(
        "--workers", type=int, default=1,
        help="accepted and ignored: EEMD preparation splits large inputs across "
             "every CPU the process may use, with bitwise identical results",
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
    """Parse argv once.  A pre-parse finds --config; the file's values enter
    as flags placed before argv's own, so they pass the same type and choice
    checks and explicit flags win.  Keys that name no flag of the subcommand
    are ignored."""
    commands = parser._subparsers._group_actions[0].choices  # argparse has no public accessor
    if not argv or argv[0] not in commands:
        return parser.parse_args(argv)
    options = commands[argv[0]]._option_string_actions
    pre = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    # --config and each abbreviation that the subcommand reads as --config
    pre.add_argument("--config", *[p for p in ("--config"[:n] for n in range(3, 8))
                                   if [o for o in options if o.startswith(p)] == ["--config"]],
                     dest="config", nargs="?")  # a missing value is the main parse's error
    config = pre.parse_known_args(argv[1:])[0].config
    if not config:
        return parser.parse_args(argv)
    try:
        values = read_json(config)
    except ParseError as exc:
        parser.error(f"--config {exc}")
    if not isinstance(values, dict):
        parser.error(f"--config {config}: expected a JSON object")
    tokens = []
    for key, value in values.items():
        flag = "--" + key.replace("_", "-")
        action = options.get(flag)
        if action is None or action.dest in ("config", "help"):
            continue
        if action.nargs == 0 and isinstance(value, bool):  # a switch
            tokens += [flag] if value else []
            continue
        items = value if isinstance(value, list) else [value]
        if any(v is None or isinstance(v, (bool, dict, list)) for v in items):
            parser.error(f"--config {config}: {key!r} cannot be {json.dumps(value)}")
        tokens += [flag, *map(str, value)] if isinstance(value, list) else [f"{flag}={value}"]
    return parser.parse_args([argv[0], *tokens, *argv[1:]])


def _eemd_params(args):
    return EemdParams(
        ensemble_size=args.ensemble_size,
        noise_std_fraction=args.noise_fraction,
        master_seed=args.seed,
    )


def _out_path(args, name):
    """--out itself, or the file `name` inside it when it is a directory; an
    --out ending in a path separator names one, created if missing."""
    path = Path(args.out)
    if args.out.endswith((os.sep, "/")):
        path.mkdir(parents=True, exist_ok=True)
    return path / name if path.is_dir() else path


def _cmd_preprocess(args):
    ts = load_timeseries(args.input, args.sample_rate)
    filt = design_lowpass(args.filter_order, args.cutoff, args.sample_rate)
    try:
        out = filter_and_downsample(ts, filt, args.target_rate)
    except DomainError as exc:
        raise DomainError(f"{args.input}: {exc}") from None
    path = _out_path(args, Path(args.input).stem + "_preprocessed.csv")
    # one %-format over all rows; the same bytes as np.savetxt, which
    # formats row by row
    values = out.samples.tolist()
    path.write_text(("%.18e\n" * len(values)) % tuple(values), encoding="utf-8")
    print(json.dumps({"output": str(path), "n_samples": int(out.samples.size),
                      "sample_rate_hz": out.sample_rate_hz}))


def _cmd_decompose(args):
    ts = load_timeseries(args.input, args.sample_rate)
    if args.method == "wpt":
        tree = wpt_decompose(ts, args.level)
        path = _out_path(args, Path(args.input).stem + "_packets.csv")
        with open(path, "w", encoding="utf-8") as fh:
            for level in range(1, args.level + 1):
                for j in range(1, 2**level + 1):
                    coeffs = ",".join(f"{c:.12g}" for c in tree.packet(level, j))
                    fh.write(f"{level},{j},{coeffs}\n")
    else:
        imfs = eemd(ts.samples, _eemd_params(args))
        path = _out_path(args, Path(args.input).stem + "_imfs.csv")
        cols = [np.asarray(c) for c in imfs.imfs] + [imfs.residue]
        header = ",".join([f"imf{i + 1}" for i in range(imfs.n_imfs)] + ["residue"])
        np.savetxt(path, np.column_stack(cols), delimiter=",", header=header,
                   comments="")
    print(json.dumps({"output": str(path)}))


def _prepare(args, stickout_ids):
    """Prepare each stickout configuration from one load of the manifest."""
    for sid in stickout_ids:  # an id names output files
        if {"/", os.sep, "\0"} & set(sid):
            raise ValidationError(f"stickout id {sid!r} holds a path separator or NUL")
    manifest = load_manifest(args.manifest)
    # each stickout's first record gives its rate: refuse a mismatch before reading
    rates = {rec.stickout_id: rec.sample_rate_hz for rec in reversed(manifest.records)}
    harness.check_sample_rates({sid: rates[sid] for sid in stickout_ids if sid in rates})
    eemd_params = _eemd_params(args) if args.method == "eemd" else None
    return [harness.prepare_from_manifest(manifest, sid, args.method, level=args.level,
                                          window_len=args.window_len, eemd_params=eemd_params)
            for sid in stickout_ids]


def _select_all(args):
    """The stickout's prepared config and its selection from every
    chatter-labeled sample."""
    [prepared] = _prepare(args, [args.stickout])
    return prepared, prepared.select(range(len(prepared.samples)))


def _cmd_select(args):
    _, selection = _select_all(args)
    record = {"stickout_id": args.stickout, "method": args.method, **selection}
    path = _out_path(args, f"selection_{args.stickout}_{args.method}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    print(json.dumps({"output": str(path), "index": selection["index"]}))


def _cmd_features(args):
    prepared, selection = _select_all(args)
    X = prepared.feature_rows(range(len(prepared.samples)), selection)
    path = _out_path(args, f"features_{args.stickout}_{args.method}.csv")
    header = ",".join(list(harness.FEATURE_NAMES[args.method]) + ["label"])
    np.savetxt(path, np.column_stack([X, prepared.labels]), delimiter=",",
               header=header, comments="")
    print(json.dumps({"output": str(path), "n_samples": int(X.shape[0])}))


def _cmd_train(args):
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)  # an empty file warns, then fails
        try:
            table = np.genfromtxt(args.features, delimiter=",", names=True,
                                  encoding="utf-8-sig")
        except (UserWarning, ValueError) as exc:  # empty, or rows of unequal length
            raise ValidationError(f"{args.features}: not a feature table: {exc}") from None
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
    columns = [c for c in names if c != "label"]
    X = np.column_stack([table[c] for c in columns])
    rows, cols = np.nonzero(~np.isfinite(X))  # a cell that is not a number reads as nan
    if rows.size:
        raise ValidationError(f"{args.features}: data row {rows[0] + 1} column "
                              f"{columns[cols[0]]!r} is not a finite number")
    model = make_trainer(args.classifier, seed=args.seed)(X, y)
    path = _out_path(args, f"model_{CLASSIFIERS[args.classifier]}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model.to_dict(), fh)
    train_acc = float(np.mean(model.predict(X) == y))
    print(json.dumps({"output": str(path), "train_accuracy": train_acc}))


def _spec(args):
    return harness.ExperimentSpec(args.classifier, args.realizations, args.seed,
                                  args.grouped_split)


def _emit(args, report, tag):
    """Write the report into --out as `<tag>_<method>_<classifier>`, under
    the names its spec carries, and print its path and best row."""
    spec = report.spec
    path = harness.emit_report(report, args.out,
                               f"{tag}_{spec['method']}_{spec['classifier']}")
    print(json.dumps({"output": str(path), "best": report.best_row()}))


def _cmd_evaluate_within(args):
    spec = _spec(args)
    [prepared] = _prepare(args, [args.stickout])
    _emit(args, harness.run_within(spec, prepared), f"within_{args.stickout}")


def _cmd_evaluate_transfer(args):
    combined = len(args.train_config) == 2
    harness.check_transfer_configs(args.train_config, args.test_config, combined)
    spec = _spec(args)
    prepared = _prepare(args, args.train_config + args.test_config)
    if combined:
        report = harness.run_transfer_combined(spec, prepared[:2], prepared[2:])
    else:
        report = harness.run_transfer(spec, *prepared)
    _emit(args, report,
          "transfer_" + "-".join(args.train_config) + "_to_" + "-".join(args.test_config))


def _cmd_report(args):
    try:
        report = harness.ExperimentReport.from_dict(read_json(args.input))
    except ValidationError as exc:
        raise ValidationError(f"{args.input}: {exc}") from None
    name = Path(args.input).stem
    if (Path(args.out) / f"{name}.json").resolve() == Path(args.input).resolve():
        raise ValidationError(f"{args.input}: report would write over its input; "
                              "give --out another directory")
    path = harness.emit_report(report, args.out, name)
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
        if getattr(args, "seed", 0) < 0:  # numpy's seed sequences take no negative entropy
            raise ValidationError(f"--seed must be non-negative, got {args.seed}")
        _COMMANDS[args.command](args)
    except Exception as exc:  # one JSON record: package error 1, I/O error 2, other fault 3
        code = 1 if isinstance(exc, ChatterDetectError) else 2 if isinstance(exc, OSError) else 3
        record = {"error": "IOError" if code == 2 else type(exc).__name__, "message": str(exc)}
        if code == 3:  # a fault of the program: keep where it happened
            record["traceback"] = traceback.format_exc()
        sys.stderr.write(json.dumps(record) + "\n")
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
