"""Experiment orchestration: within-configuration evaluation, transfer
learning between stickout cases, combined-training transfer, and report
emission.

Decomposition is done once per sample, and EEMD features for every IMF
index.  A WPT sample keeps the deepest level of its packet tree; a packet's
features are reconstructed from it the first time a selection reads them,
then kept.  Each realization only re-draws the split, re-selects the
informative component on its training side, and retrains.  Samples are keyed
by stable ids, making reports invariant under manifest row order.

An ExperimentSpec holds only what a run's inputs do not fix: classifier,
realizations, seed and grouped split.  The report's spec record adds the
method, its parameter record (level or window length) and the stickouts from
the prepared configs, and the mode and split from the run function.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .emd import EemdParams, eemd
from .errors import DomainError, ValidationError
from .features import (
    EEMD_FEATURE_NAMES,
    WPT_FEATURE_NAMES,
    eemd_features,
    wpt_features,
)
from .ingest import (
    CuttingConfig,
    cut_segments,
    json_float,
    load_labels,
    load_timeseries,
    window_segments,
)
from .ml import CLASSIFIERS, make_trainer, nested_feature_accuracies, rfe_rank
from .select import in_band_fraction, select_imf, select_packet
from .wavelet import FrequencyBand, PacketTree, energy_ratios, reconstruct_packet, wpt_decompose

WITHIN_SPLIT = (0.67, 0.33)
TRANSFER_SPLIT = (0.70, 0.70)
MAX_SPLIT_ATTEMPTS = 100
FEATURE_NAMES = {"wpt": WPT_FEATURE_NAMES, "eemd": EEMD_FEATURE_NAMES}


@dataclass(frozen=True)
class ExperimentSpec:
    """The settings a run cannot read from its prepared configs; the run
    function fixes the mode and split, the configs the rest."""

    classifier: str  # any spelling in ml.CLASSIFIERS; stored as the name reports carry
    n_realizations: int = 10
    master_seed: int = 0
    grouped_split: bool = False

    def __post_init__(self):
        if self.classifier not in CLASSIFIERS:
            raise ValidationError(f"unknown classifier {self.classifier!r}")
        object.__setattr__(self, "classifier", CLASSIFIERS[self.classifier])
        if self.n_realizations < 1:
            raise ValidationError(f"n_realizations must be positive, got {self.n_realizations}")
        if self.master_seed < 0:  # numpy's seed sequences take no negative entropy
            raise ValidationError(f"master_seed must be non-negative, got {self.master_seed}")


@dataclass(frozen=True)
class PreparedSample:
    """One classification sample with what selection and features need."""

    sample_id: tuple  # (file_id, interval index, window index)
    label: int
    # wpt: the leaves of the segment's packet tree, their energy ratios, and
    # (2^level, 14) packet features, NaN until read
    tree: PacketTree | None = None
    packet_features: np.ndarray | None = None
    packet_energy_ratios: np.ndarray | None = None
    # eemd: (n_imfs, 7) features per IMF index, plus chatter-band fractions
    imf_features: np.ndarray | None = None
    imf_band_fractions: np.ndarray | None = None

    @property
    def group(self):
        """Parent segment key (file_id, interval index), for grouped splits."""
        return self.sample_id[:2]


@dataclass(frozen=True)
class PreparedConfig:
    config: CuttingConfig
    method: str
    sample_rate_hz: float
    params: dict  # {"level": L} for wpt, {"window_len": N} for eemd
    samples: list

    @property
    def labels(self):
        return np.asarray([s.label for s in self.samples], dtype=int)

    def select(self, indices):
        """Informative component from the chatter-labeled samples among
        `indices`, as the selection record written into reports."""
        chatter = [self.samples[i] for i in indices if self.samples[i].label == 1]
        if self.method == "wpt":
            return select_packet(
                [s.packet_energy_ratios for s in chatter],
                FrequencyBand(*self.config.chatter_band_hz),
                self.params["level"],
                self.sample_rate_hz,
            )
        return select_imf([s.imf_band_fractions for s in chatter])

    def feature_rows(self, indices, selection):
        """Feature matrix of the samples at `indices` for the selected
        component; a WPT row is computed on its first read."""
        idx = selection["index"]
        rows = []
        for i in indices:
            s = self.samples[i]
            if self.method == "wpt":
                row = s.packet_features[idx - 1]
                if np.isnan(row[0]):
                    packet = reconstruct_packet(s.tree, self.params["level"], idx)
                    row[:] = wpt_features(packet.samples, self.sample_rate_hz)
                rows.append(row)
            elif idx <= s.imf_features.shape[0]:
                rows.append(s.imf_features[idx - 1])
            else:
                # decomposition stopped before this index: the ensemble-mean
                # IMF is identically zero, so every feature is zero
                rows.append(np.zeros(len(EEMD_FEATURE_NAMES)))
        return np.vstack(rows)


def _sample_rate(segments):
    """The sample rate every segment shares; bands and features assume one."""
    fs = segments[0].series.sample_rate_hz
    for seg in segments:
        if seg.series.sample_rate_hz != fs:
            raise ValidationError(
                f"file {seg.source[0]!r} is sampled at {seg.series.sample_rate_hz} Hz, "
                f"but file {segments[0].source[0]!r} at {fs} Hz; a stickout's "
                "recordings must share one sample rate"
            )
    return fs


def prepare_wpt_config(config, segments, level):
    """Decompose every labeled segment once, keeping its leaves and their
    energy ratios."""
    if not segments:
        raise ValidationError("no labeled segments to prepare")
    fs = _sample_rate(segments)
    prepared = []
    for seg in segments:
        try:
            tree = wpt_decompose(seg.series, level).leaves()
            ratios = energy_ratios(tree, level)
        except DomainError as exc:
            raise DomainError(f"file {seg.source[0]!r} interval {seg.source[1]}: {exc}") from None
        prepared.append(
            PreparedSample(
                sample_id=(seg.source[0], seg.source[1], 0),
                label=seg.label,
                tree=tree,
                packet_energy_ratios=ratios,
                packet_features=np.full((2**level, len(WPT_FEATURE_NAMES)), np.nan),
            )
        )
    prepared.sort(key=lambda s: s.sample_id)
    return PreparedConfig(config, "wpt", fs, {"level": level}, prepared)


def prepare_eemd_config(config, segments, window_len=1000, eemd_params=None):
    """Window every segment, decompose all windows in one eemd call, featurize
    every IMF."""
    if eemd_params is None:
        eemd_params = EemdParams()
    windows = window_segments(segments, window_len)
    if not windows:
        raise ValidationError("no windows to prepare; segments shorter than window_len")
    fs = _sample_rate(windows)
    band = FrequencyBand(*config.chatter_band_hz)
    decomposed = eemd(np.stack([win.series.samples for win in windows]), eemd_params)
    counters = {}
    prepared = []
    for win, imfs in zip(windows, decomposed):
        w_idx = counters.get(win.source, 0)
        counters[win.source] = w_idx + 1
        if imfs.n_imfs == 0:
            continue  # degenerate window with no oscillation
        feats = np.vstack([eemd_features(imfs, i + 1) for i in range(imfs.n_imfs)])
        fractions = np.asarray([in_band_fraction(c, band, fs) for c in imfs.imfs])
        prepared.append(
            PreparedSample(
                sample_id=(win.source[0], win.source[1], w_idx),
                label=win.label,
                imf_features=feats,
                imf_band_fractions=fractions,
            )
        )
    prepared.sort(key=lambda s: s.sample_id)
    return PreparedConfig(config, "eemd", fs, {"window_len": window_len}, prepared)


def segments_from_manifest(manifest, stickout_id):
    """Load and cut every labeled segment of one stickout; mild counts as chatter."""
    segments = []
    for rec in manifest.records:
        if rec.stickout_id != stickout_id:
            continue
        ts = load_timeseries(rec.signal_path, rec.sample_rate_hz)
        labels = load_labels(rec.label_path)
        try:
            segments.extend(cut_segments(ts, labels, file_id=rec.file_id))
        except ValidationError as exc:
            raise ValidationError(f"{rec.label_path}: {exc}") from None
    if not segments:
        raise ValidationError(f"manifest holds no data for stickout {stickout_id!r}")
    return segments


def prepare_from_manifest(manifest, stickout_id, method, level=4,
                          window_len=1000, eemd_params=None):
    if method not in FEATURE_NAMES:
        raise ValidationError(f"unknown method {method!r}; use 'wpt' or 'eemd'")
    config = manifest.config(stickout_id)
    segments = segments_from_manifest(manifest, stickout_id)
    if method == "wpt":
        return prepare_wpt_config(config, segments, level)
    return prepare_eemd_config(config, segments, window_len, eemd_params)


# ---------------------------------------------------------------------------
# splitting

def _stratified_split(labels, fraction, rng, groups=None):
    """Indices of a stratified draw and its complement.

    Whole groups land on one side, and stratification is by group label;
    without groups, each sample is its own group.
    """
    labels = np.asarray(labels)
    keys = {}
    for i, g in enumerate(range(labels.size) if groups is None else groups):
        keys.setdefault(g, []).append(i)
    units = [tuple(v) for _, v in sorted(keys.items())]
    unit_labels = np.asarray([labels[u[0]] for u in units])
    part, rest = [], []
    for cls in np.unique(unit_labels):
        members = np.flatnonzero(unit_labels == cls)
        perm = rng.permutation(members)
        n_take = int(round(fraction * members.size))
        n_take = min(max(n_take, 0), members.size)
        for u in perm[:n_take]:
            part.extend(units[u])
        for u in perm[n_take:]:
            rest.extend(units[u])
    return np.asarray(sorted(part), dtype=int), np.asarray(sorted(rest), dtype=int)


def _draw_split(labels, fraction, rng, groups=None, need_complement=True):
    for _ in range(MAX_SPLIT_ATTEMPTS):
        part, rest = _stratified_split(labels, fraction, rng, groups)
        ok = part.size > 0 and np.unique(labels[part]).size == 2
        if need_complement:
            ok = ok and rest.size > 0 and np.unique(labels[rest]).size == 2
        if ok:
            return part, rest
    raise DomainError(
        "could not draw a split with both classes on each side "
        f"after {MAX_SPLIT_ATTEMPTS} attempts"
    )


# ---------------------------------------------------------------------------
# reports

@dataclass(frozen=True)
class ExperimentReport:
    spec: dict
    feature_names: tuple
    per_k: list  # [{k, mean_train, std_train, mean_test, std_test}]
    realizations: list  # per-realization logs
    n_realizations: int

    def to_dict(self):
        return {
            "spec": self.spec,
            "feature_names": list(self.feature_names),
            "per_k": self.per_k,
            "realizations": self.realizations,
            "n_realizations": self.n_realizations,
        }

    @classmethod
    def from_dict(cls, d):
        """The report that `d`'s spec and realizations give, rebuilt as a run
        builds it; a ValidationError unless its to_dict() equals `d`, naming
        the first key that differs."""
        if not isinstance(d, dict):
            raise ValidationError(f"a report is an object, not {type(d).__name__}")
        for key, kind, noun in (("spec", dict, "an object"),
                                ("realizations", list, "a non-empty list")):
            if key not in d:
                raise ValidationError(f"report has no {key!r} key")
            if not isinstance(d[key], kind) or d[key] == []:
                raise ValidationError(f"report key {key!r} holds {d[key]!r}, not {noun}")
        spec = d["spec"]
        for key, allowed in (("method", list(FEATURE_NAMES)),
                             ("classifier", sorted(set(CLASSIFIERS.values()))),
                             ("mode", ["within", "transfer", "transfer-combined"])):
            if spec.get(key) not in allowed:
                raise ValidationError(
                    f"report key 'spec.{key}' holds {spec.get(key)!r}, not one of {allowed}")
        n = len(FEATURE_NAMES[spec["method"]])
        for r, log in enumerate(d["realizations"]):
            rows = log.get("accuracies") if isinstance(log, dict) else None
            what = f"report key 'realizations[{r}].accuracies'"
            if not isinstance(rows, list) or len(rows) != n:
                raise ValidationError(f"{what} must hold {n} rows [k, train, test]")
            for k, row in enumerate(rows, 1):
                if not (isinstance(row, list) and len(row) == 3 and type(row[0]) is int
                        and row[0] == k
                        and all(0 <= json_float(v, f"{what} row {k}") <= 1 for v in row[1:])):
                    raise ValidationError(f"{what} row {k} holds {row!r}, not [{k}, train "
                                          "accuracy, test accuracy]")
        report = _aggregate(spec, d["realizations"])
        rebuilt = report.to_dict()
        for key in {**rebuilt, **d}:  # as in JSON text, 1, 1.0 and true differ
            if key not in d or key not in rebuilt or (
                    json.dumps(d[key], sort_keys=True) != json.dumps(rebuilt[key], sort_keys=True)):
                raise ValidationError(f"report key {key!r} differs from the report that its "
                                      "spec and realizations give")
        return report

    def best_row(self):
        return max(self.per_k, key=lambda row: row["mean_test"])


def _aggregate(record, logs):
    feature_names = FEATURE_NAMES[record["method"]]
    d = len(feature_names)
    per_k = []
    for k in range(1, d + 1):
        train = np.array([log["accuracies"][k - 1][1] for log in logs])
        test = np.array([log["accuracies"][k - 1][2] for log in logs])
        per_k.append(
            {
                "k": k,
                "mean_train": float(train.mean()),
                "std_train": float(train.std(ddof=0)),
                "mean_test": float(test.mean()),
                "std_test": float(test.std(ddof=0)),
            }
        )
    return ExperimentReport(record, tuple(feature_names), per_k, logs, len(logs))


def _stack(parts):
    """Feature matrix and labels of (prepared, indices, selection) parts."""
    X = np.vstack([prep.feature_rows(idx, sel) for prep, idx, sel in parts])
    y = np.concatenate([prep.labels[idx] for prep, idx, _ in parts])
    return X, y


def check_transfer_configs(train_ids, test_ids, combined):
    """Reject transfer sides that are not one stickout each (two each when
    combined) or that name a stickout twice."""
    n = 2 if combined else 1
    if len(train_ids) != n or len(test_ids) != n:
        raise ValidationError("combined mode takes two train and two test configs" if combined
                              else "transfer mode takes one train and one test config")
    ids = [*train_ids, *test_ids]
    if len(set(ids)) != len(ids):
        raise ValidationError(f"transfer configs must be distinct, got train {list(train_ids)} "
                              f"and test {list(test_ids)}")


def _report_spec(spec, mode, trains, tests):
    """The report's spec record: the run's settings, the mode and its split,
    and the stickouts and decomposition of the prepared configs, which must
    share one method and parameter record."""
    train_ids = [p.config.stickout_id for p in trains]
    test_ids = [p.config.stickout_id for p in tests]
    if mode != "within":
        check_transfer_configs(train_ids, test_ids, combined=mode == "transfer-combined")
    first = trains[0]
    for prep in (*trains, *tests):
        if (prep.method, prep.params) != (first.method, first.params):
            raise ValidationError(
                f"stickout {prep.config.stickout_id!r} was prepared with {prep.method} "
                f"{prep.params}, but stickout {first.config.stickout_id!r} with "
                f"{first.method} {first.params}")
    return {
        "method": first.method,
        "classifier": spec.classifier,
        "train_configs": train_ids,
        "test_configs": test_ids,
        "mode": mode,
        **first.params,
        "n_realizations": spec.n_realizations,
        "split": list(WITHIN_SPLIT if mode == "within" else TRANSFER_SPLIT),
        "master_seed": spec.master_seed,
        "grouped_split": spec.grouped_split,
    }


def _realize(spec, mode, trains, tests, draw):
    """The realization loop shared by every mode, on the prepared train and
    test configs.

    draw(r) returns the train parts, the test parts and the selection record
    of realization r; a part is (prepared config, sample indices, selection).
    """
    record = _report_spec(spec, mode, trains, tests)
    logs = []
    for r in range(spec.n_realizations):
        train, test, selection = draw(r)
        Xtr, ytr = _stack(train)
        Xte, yte = _stack(test)
        seed = np.random.SeedSequence([spec.master_seed, r, 7]).generate_state(1)[0]
        ranking = rfe_rank(Xtr, ytr, make_trainer(spec.classifier, seed=int(seed)))
        logs.append({
            "realization": r,
            "selection": selection,
            "ranking": list(ranking.order),
            "accuracies": nested_feature_accuracies(Xtr, ytr, Xte, yte, ranking),
            "n_train": int(len(ytr)),
            "n_test": int(len(yte)),
        })
        del ranking  # drop its step models before the next realization's RFE
    return _aggregate(record, logs)


def _groups(spec, prepared):
    """Per-sample split groups under a grouped split, else None."""
    return [s.group for s in prepared.samples] if spec.grouped_split else None


def _draw_side(spec, prepared, fraction, rng):
    """A stratified draw of one dataset, without a complement."""
    idx, _ = _draw_split(prepared.labels, fraction, rng, _groups(spec, prepared),
                         need_complement=False)
    return idx


def run_within(spec, prepared):
    """Repeated stratified split-train-test on a single configuration."""
    labels = prepared.labels
    groups = _groups(spec, prepared)

    def draw(r):
        rng = np.random.default_rng([spec.master_seed, r])
        train_idx, test_idx = _draw_split(labels, WITHIN_SPLIT[0], rng, groups)
        selection = prepared.select(train_idx)
        return ([(prepared, train_idx, selection)],
                [(prepared, test_idx, selection)], selection)

    return _realize(spec, "within", [prepared], [prepared], draw)


def run_transfer(spec, prepared_train, prepared_test):
    """Train on one configuration, test on another.

    The informative packet/IMF is frozen from the training configuration and
    applied unchanged on the test side.
    """
    def draw(r):
        rng = np.random.default_rng([spec.master_seed, r])
        train_idx = _draw_side(spec, prepared_train, TRANSFER_SPLIT[0], rng)
        test_idx = _draw_side(spec, prepared_test, TRANSFER_SPLIT[1], rng)
        selection = prepared_train.select(train_idx)
        return ([(prepared_train, train_idx, selection)],
                [(prepared_test, test_idx, selection)], selection)

    return _realize(spec, "transfer", [prepared_train], [prepared_test], draw)


def run_transfer_combined(spec, prepared_trains, prepared_tests):
    """Train on the union of two configurations, test on two others.

    Each configuration's samples are featurized with its own informative
    selection (selections differ across stickout cases), computed from the
    drawn samples of that configuration.
    """
    def draw(r):
        sides, selections = [], {}
        for side_code, (fraction, datasets) in enumerate(
            zip(TRANSFER_SPLIT, (prepared_trains, prepared_tests))
        ):
            parts = []
            for pos, prep in enumerate(datasets):
                rng = np.random.default_rng([spec.master_seed, r, side_code, pos])
                idx = _draw_side(spec, prep, fraction, rng)
                selection = prep.select(idx)
                selections[prep.config.stickout_id] = selection
                parts.append((prep, idx, selection))
            sides.append(parts)
        return sides[0], sides[1], selections

    return _realize(spec, "transfer-combined", prepared_trains, prepared_tests, draw)


# ---------------------------------------------------------------------------
# emission

def _row_label(k):
    return "r1" if k == 1 else f"r1-r{k}"


def emit_report(report, out_dir, basename="report"):
    """Write the report as JSON plus CSV and text tables."""
    spec = report.spec
    csv_text = "features,mean_test,std_test,mean_train,std_train\n" + "".join(
        f"{_row_label(row['k'])},{row['mean_test']:.4f},{row['std_test']:.4f},"
        f"{row['mean_train']:.4f},{row['std_train']:.4f}\n"
        for row in report.per_k
    )
    txt_text = (
        f"method={spec['method']} classifier={spec['classifier']} "
        f"mode={spec['mode']} realizations={report.n_realizations}\n"
        f"{'features':<10}{'test acc':>18}{'train acc':>18}\n"
    ) + "".join(
        f"{_row_label(row['k']):<10}"
        f"{100 * row['mean_test']:>8.1f} +/- {100 * row['std_test']:<5.1f}"
        f"{100 * row['mean_train']:>8.1f} +/- {100 * row['std_train']:<5.1f}\n"
        for row in report.per_k
    )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / f"{basename}.json"
    json_path.write_text(json.dumps(report.to_dict(), indent=2), encoding="utf-8")
    (out_dir / f"{basename}.csv").write_text(csv_text, encoding="utf-8")
    (out_dir / f"{basename}.txt").write_text(txt_text, encoding="utf-8")
    return json_path
