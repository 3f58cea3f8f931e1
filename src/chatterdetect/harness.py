"""Experiment orchestration: within-configuration evaluation, transfer
learning between stickout cases, combined-training transfer, and report
emission.

Decomposition and feature extraction are precomputed once per sample (for
every candidate packet / IMF index), so each realization only re-draws the
split, re-selects the informative component on its training side, and
retrains.  Samples are keyed by stable ids, making reports invariant under
manifest row order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
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
    load_labels,
    load_timeseries,
    window_segments,
)
from .ml import make_trainer, nested_feature_accuracies, rfe_rank
from .select import in_band_fraction, select_imf, select_packet
from .wavelet import FrequencyBand, energy_ratios, reconstruct_packet, wpt_decompose

WITHIN_SPLIT = (0.67, 0.33)
TRANSFER_SPLIT = (0.70, 0.70)
FEATURE_NAMES = {"wpt": WPT_FEATURE_NAMES, "eemd": EEMD_FEATURE_NAMES}


@dataclass(frozen=True)
class ExperimentSpec:
    method: str  # "wpt" or "eemd"
    classifier: str  # "svm", "logistic", "forest", "boosting"
    train_configs: tuple
    test_configs: tuple
    mode: str = "within"  # "within", "transfer", "transfer-combined"
    level: int = 4
    window_len: int = 1000
    n_realizations: int = 10
    split: tuple = WITHIN_SPLIT
    master_seed: int = 0
    grouped_split: bool = False

    def __post_init__(self):
        if self.method not in ("wpt", "eemd"):
            raise ValidationError(f"unknown method {self.method!r}")
        if self.n_realizations < 1:
            raise ValidationError(f"n_realizations must be positive, got {self.n_realizations}")
        tf, sf = self.split
        if not (0 < tf <= 1 and 0 < sf <= 1):
            raise ValidationError("split fractions must lie in (0, 1]")
        if self.mode == "within":
            if tuple(self.train_configs) != tuple(self.test_configs):
                raise ValidationError("within mode requires train config == test config")
        elif self.mode == "transfer":
            if len(self.train_configs) != 1 or len(self.test_configs) != 1:
                raise ValidationError("transfer mode takes one train and one test config")
            if set(self.train_configs) & set(self.test_configs):
                raise ValidationError("transfer mode requires disjoint train/test configs")
        elif self.mode == "transfer-combined":
            all_ids = tuple(self.train_configs) + tuple(self.test_configs)
            if len(self.train_configs) != 2 or len(self.test_configs) != 2:
                raise ValidationError("combined mode takes two train and two test configs")
            if len(set(all_ids)) != 4:
                raise ValidationError("combined mode requires four distinct configs")
        else:
            raise ValidationError(f"unknown mode {self.mode!r}")

    def to_dict(self):
        d = asdict(self)
        d["train_configs"] = list(self.train_configs)
        d["test_configs"] = list(self.test_configs)
        d["split"] = list(self.split)
        return d


@dataclass(frozen=True)
class PreparedSample:
    """One classification sample with all candidate features precomputed."""

    sample_id: tuple  # (file_id, interval index, window index)
    label: int
    group: tuple  # parent segment key, for grouped splits
    # wpt: (2^level, 14) features per packet, plus the level's energy ratios
    packet_features: np.ndarray | None = None
    packet_energy_ratios: np.ndarray | None = None
    # eemd: (n_imfs, 7) features per IMF index, plus chatter-band fractions
    imf_features: np.ndarray | None = None
    imf_band_fractions: np.ndarray | None = None


@dataclass(frozen=True)
class PreparedConfig:
    config: CuttingConfig
    method: str
    sample_rate_hz: float
    level: int
    window_len: int
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
                self.level,
                self.sample_rate_hz,
            )
        return select_imf([s.imf_band_fractions for s in chatter])

    def feature_rows(self, indices, selection):
        """Feature matrix of the samples at `indices` for the selected
        component."""
        idx = selection["index"]
        rows = []
        for i in indices:
            s = self.samples[i]
            if self.method == "wpt":
                rows.append(s.packet_features[idx - 1])
            elif idx <= s.imf_features.shape[0]:
                rows.append(s.imf_features[idx - 1])
            else:
                # decomposition stopped before this index: the ensemble-mean
                # IMF is identically zero, so every feature is zero
                rows.append(np.zeros(len(EEMD_FEATURE_NAMES)))
        return np.vstack(rows)


def prepare_wpt_config(config, segments, level):
    """Decompose every labeled segment and featurize every packet."""
    if not segments:
        raise ValidationError("no labeled segments to prepare")
    fs = segments[0].series.sample_rate_hz
    prepared = []
    for seg in segments:
        tree = wpt_decompose(seg.series, level)
        ratios = energy_ratios(tree, level)
        feats = np.vstack(
            [
                wpt_features(reconstruct_packet(tree, level, j + 1).samples, fs)
                for j in range(2**level)
            ]
        )
        prepared.append(
            PreparedSample(
                sample_id=(seg.source[0], seg.source[1], 0),
                label=seg.label,
                group=seg.source,
                packet_features=feats,
                packet_energy_ratios=ratios,
            )
        )
    prepared.sort(key=lambda s: s.sample_id)
    return PreparedConfig(config, "wpt", fs, level, 0, prepared)


def prepare_eemd_config(config, segments, window_len=1000, eemd_params=None):
    """Window every segment, decompose all windows in one eemd call, featurize
    every IMF."""
    if eemd_params is None:
        eemd_params = EemdParams()
    windows = window_segments(segments, window_len)
    if not windows:
        raise ValidationError("no windows to prepare; segments shorter than window_len")
    fs = windows[0].series.sample_rate_hz
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
                group=win.source,
                imf_features=feats,
                imf_band_fractions=fractions,
            )
        )
    prepared.sort(key=lambda s: s.sample_id)
    return PreparedConfig(config, "eemd", fs, 0, window_len, prepared)


def segments_from_manifest(manifest, stickout_id, mild_as_chatter=True):
    """Load and cut every labeled segment of one stickout configuration."""
    segments = []
    for rec in manifest.records:
        if rec.stickout_id != stickout_id:
            continue
        ts = load_timeseries(rec.signal_path, rec.sample_rate_hz)
        labels = load_labels(rec.label_path)
        segments.extend(
            cut_segments(ts, labels, mild_as_chatter=mild_as_chatter,
                         file_id=rec.file_id)
        )
    if not segments:
        raise ValidationError(f"manifest holds no data for stickout {stickout_id!r}")
    return segments


def prepare_from_manifest(manifest, stickout_id, method, level=4,
                          window_len=1000, eemd_params=None):
    config = manifest.config(stickout_id)
    segments = segments_from_manifest(manifest, stickout_id)
    if method == "wpt":
        return prepare_wpt_config(config, segments, level)
    return prepare_eemd_config(config, segments, window_len, eemd_params)


# ---------------------------------------------------------------------------
# splitting

def _stratified_split(labels, fraction, rng, groups=None):
    """Indices of a stratified draw and its complement.

    With groups, whole groups land on one side; stratification is then by
    group label.
    """
    labels = np.asarray(labels)
    if groups is None:
        units = [(i,) for i in range(labels.size)]
        unit_labels = labels
    else:
        keys = {}
        for i, g in enumerate(groups):
            keys.setdefault(g, []).append(i)
        units = [tuple(v) for _, v in sorted(keys.items())]
        unit_labels = np.asarray(
            [labels[u[0]] for u in units]
        )
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


def _draw_split(labels, fraction, rng, groups=None, need_complement=True,
                max_attempts=100):
    for _ in range(max_attempts):
        part, rest = _stratified_split(labels, fraction, rng, groups)
        ok = part.size > 0 and np.unique(labels[part]).size == 2
        if need_complement:
            ok = ok and rest.size > 0 and np.unique(labels[rest]).size == 2
        if ok:
            return part, rest
    raise DomainError(
        "could not draw a split with both classes on each side "
        f"after {max_attempts} attempts"
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
        """A missing key raises KeyError, a value of the wrong type ValidationError."""
        for key, kind, noun in (("spec", dict, "an object"),
                                ("feature_names", list, "a list"), ("per_k", list, "a list")):
            if not isinstance(d[key], kind):
                raise ValidationError(f"report key {key!r} holds {d[key]!r}, not {noun}")
        for i, row in enumerate(d["per_k"]):
            if not isinstance(row, dict):
                raise ValidationError(f"report key 'per_k[{i}]' holds {row!r}, not an object")
            for key in ("k", "mean_test", "std_test", "mean_train", "std_train"):
                if type(row[key]) not in (int, float):  # bool and None are not numbers
                    raise ValidationError(
                        f"report key 'per_k[{i}].{key}' holds {row[key]!r}, not a number")
        return cls(d["spec"], tuple(d["feature_names"]), d["per_k"], d["realizations"],
                   d["n_realizations"])

    def best_row(self):
        return max(self.per_k, key=lambda row: row["mean_test"])


def _aggregate(spec, feature_names, logs):
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
    return ExperimentReport(spec.to_dict(), tuple(feature_names), per_k, logs, len(logs))


def _stack(parts):
    """Feature matrix and labels of (prepared, indices, selection) parts."""
    X = np.vstack([prep.feature_rows(idx, sel) for prep, idx, sel in parts])
    y = np.concatenate([prep.labels[idx] for prep, idx, _ in parts])
    return X, y


def _realize(spec, draw):
    """The realization loop shared by every mode.

    draw(r) returns the train parts, the test parts and the selection record
    of realization r; a part is (prepared config, sample indices, selection).
    """
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
    return _aggregate(spec, FEATURE_NAMES[spec.method], logs)


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
    if spec.mode != "within":
        raise ValidationError("spec is not in within mode")
    labels = prepared.labels
    groups = _groups(spec, prepared)

    def draw(r):
        rng = np.random.default_rng([spec.master_seed, r])
        train_idx, test_idx = _draw_split(labels, spec.split[0], rng, groups)
        selection = prepared.select(train_idx)
        return ([(prepared, train_idx, selection)],
                [(prepared, test_idx, selection)], selection)

    return _realize(spec, draw)


def run_transfer(spec, prepared_train, prepared_test):
    """Train on one configuration, test on another.

    The informative packet/IMF is frozen from the training configuration and
    applied unchanged on the test side.
    """
    if spec.mode != "transfer":
        raise ValidationError("spec is not in transfer mode")

    def draw(r):
        rng = np.random.default_rng([spec.master_seed, r])
        train_idx = _draw_side(spec, prepared_train, spec.split[0], rng)
        test_idx = _draw_side(spec, prepared_test, spec.split[1], rng)
        selection = prepared_train.select(train_idx)
        return ([(prepared_train, train_idx, selection)],
                [(prepared_test, test_idx, selection)], selection)

    return _realize(spec, draw)


def run_transfer_combined(spec, prepared_trains, prepared_tests):
    """Train on the union of two configurations, test on two others.

    Each configuration's samples are featurized with its own informative
    selection (selections differ across stickout cases), computed from the
    drawn samples of that configuration.
    """
    if spec.mode != "transfer-combined":
        raise ValidationError("spec is not in transfer-combined mode")
    if len(prepared_trains) != 2 or len(prepared_tests) != 2:
        raise ValidationError("combined mode takes two train and two test datasets")

    def draw(r):
        sides, selections = [], {}
        for side_code, (fraction, datasets) in enumerate(
            ((spec.split[0], prepared_trains), (spec.split[1], prepared_tests))
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

    return _realize(spec, draw)


# ---------------------------------------------------------------------------
# emission

def _row_label(k):
    return "r1" if k == 1 else f"r1-r{k}"


def emit_report(report, out_dir, basename="report"):
    """Write the report as JSON plus CSV and text tables; a missing key writes none."""
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
