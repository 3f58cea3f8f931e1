import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chatterdetect import (
    DomainError,
    EemdParams,
    ExperimentReport,
    ExperimentSpec,
    FrequencyBand,
    Segment,
    TimeSeries,
    ValidationError,
    eemd,
    eemd_features,
    emit_report,
    in_band_fraction,
    load_manifest,
    prepare_eemd_config,
    prepare_from_manifest,
    prepare_wpt_config,
    run_transfer,
    run_transfer_combined,
    run_within,
)
from chatterdetect.harness import _draw_split
from synthetic_corpus import FS, make_config, make_segments, write_corpus_files

FAST_EEMD = EemdParams(ensemble_size=4, master_seed=0)


@pytest.fixture(scope="module")
def wpt_prepared():
    return prepare_wpt_config(make_config(), make_segments(seed=0), level=3)


@pytest.fixture(scope="module")
def eemd_prepared():
    segments = make_segments(seed=0, n_stable=6, n_chatter=6, seg_len=2000)
    return prepare_eemd_config(make_config(), segments, window_len=1000,
                               eemd_params=FAST_EEMD)


def within_spec(**kw):
    base = dict(
        method="wpt", classifier="logistic", train_configs=("synth",),
        test_configs=("synth",), mode="within", level=3, n_realizations=3,
        master_seed=0,
    )
    base.update(kw)
    return ExperimentSpec(**base)


class TestExperimentSpec:
    def test_within_requires_matching_configs(self):
        with pytest.raises(ValidationError):
            within_spec(test_configs=("other",))

    def test_transfer_requires_disjoint(self):
        with pytest.raises(ValidationError):
            ExperimentSpec("wpt", "svm", ("a",), ("a",), mode="transfer")

    @pytest.mark.parametrize("train, test", [(("a", "b", "c"), ("d",)),
                                             (("a",), ("c", "d")),
                                             (("a", "b"), ("c", "d"))])
    def test_transfer_takes_one_config_per_side(self, train, test):
        with pytest.raises(ValidationError, match="one train and one test"):
            ExperimentSpec("wpt", "svm", train, test, mode="transfer")

    def test_combined_requires_four_distinct(self):
        with pytest.raises(ValidationError):
            ExperimentSpec("wpt", "svm", ("a", "b"), ("b", "c"),
                           mode="transfer-combined")
        with pytest.raises(ValidationError):
            ExperimentSpec("wpt", "svm", ("a",), ("c", "d"),
                           mode="transfer-combined")

    def test_unknown_method_and_mode(self):
        with pytest.raises(ValidationError):
            ExperimentSpec("dwt", "svm", ("a",), ("a",))
        with pytest.raises(ValidationError):
            ExperimentSpec("wpt", "svm", ("a",), ("a",), mode="cross")


class TestPreparation:
    def test_wpt_shapes(self, wpt_prepared):
        assert len(wpt_prepared.samples) == 24
        s = wpt_prepared.samples[0]
        assert s.packet_features.shape == (8, 14)
        assert s.packet_energy_ratios.shape == (8,)
        assert abs(s.packet_energy_ratios.sum() - 1.0) < 1e-9

    def test_wpt_sorted_by_sample_id(self, wpt_prepared):
        ids = [s.sample_id for s in wpt_prepared.samples]
        assert ids == sorted(ids)

    def test_eemd_shapes(self, eemd_prepared):
        assert len(eemd_prepared.samples) == 24  # 12 segments x 2 windows
        s = eemd_prepared.samples[0]
        assert s.imf_features.shape[1] == 7
        assert s.imf_band_fractions.size == s.imf_features.shape[0]

    def test_eemd_batch_matches_per_window(self):
        # 13 windows x 4 members fill more than one sifting batch; the
        # constant segment's windows take the plain-EMD path, get no IMFs
        # and are dropped
        segments = make_segments(seed=3, n_stable=3, n_chatter=3, seg_len=2000)
        segments.append(Segment(TimeSeries(np.full(1500, 0.25), FS), 0, ("flat", 0)))
        config = make_config()
        prepared = prepare_eemd_config(config, segments, window_len=1000,
                                       eemd_params=FAST_EEMD)
        band = FrequencyBand(*config.chatter_band_hz)
        expected = {}
        for seg in segments:
            for w in range(seg.series.samples.size // 1000):
                imfs = eemd(seg.series.samples[w * 1000 : (w + 1) * 1000], FAST_EEMD)
                if imfs.n_imfs:
                    expected[(*seg.source, w)] = imfs
        assert ("flat", 0, 0) not in expected
        assert [s.sample_id for s in prepared.samples] == sorted(expected)
        for s in prepared.samples:
            imfs = expected[s.sample_id]
            feats = np.vstack([eemd_features(imfs, i + 1) for i in range(imfs.n_imfs)])
            fractions = [in_band_fraction(c, band, FS) for c in imfs.imfs]
            assert np.array_equal(s.imf_features, feats)
            assert np.array_equal(s.imf_band_fractions, fractions)

    def test_empty_segments_rejected(self):
        with pytest.raises(ValidationError):
            prepare_wpt_config(make_config(), [], level=3)

    def test_short_segments_rejected(self):
        segs = make_segments(seed=1, n_stable=1, n_chatter=1, seg_len=500)
        with pytest.raises(ValidationError):
            prepare_eemd_config(make_config(), segs, window_len=1000)


@st.composite
def labeled_groups(draw):
    """Shuffled labels with at least two single-class groups per class."""
    labels, groups = [], []
    for cls in (0, 1):
        sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=6))
        for g, size in enumerate(sizes):
            labels += [cls] * size
            groups += [(cls, g)] * size
    order = draw(st.permutations(range(len(labels))))
    return np.asarray(labels)[order], [groups[i] for i in order]


class TestDrawSplit:
    @settings(max_examples=100, deadline=None)
    @given(labeled_groups(), st.floats(0.3, 0.7), st.booleans(), st.booleans(),
           st.integers(0, 2**32 - 1))
    def test_invariants(self, data, fraction, grouped, need_complement, seed):
        labels, groups = data
        groups = groups if grouped else None

        def draw():
            return _draw_split(labels, fraction, np.random.default_rng(seed),
                               groups, need_complement=need_complement)

        part, rest = draw()
        assert np.all(np.diff(part) > 0) and np.all(np.diff(rest) > 0)
        assert sorted([*part, *rest]) == list(range(labels.size))
        assert set(labels[part]) == {0, 1}
        if need_complement:
            assert set(labels[rest]) == {0, 1}
        if grouped:
            assert {groups[i] for i in part}.isdisjoint(groups[i] for i in rest)
        again = draw()
        assert np.array_equal(part, again[0]) and np.array_equal(rest, again[1])

    def test_single_class_rejected(self):
        with pytest.raises(DomainError):
            _draw_split(np.zeros(6, dtype=int), 0.5, np.random.default_rng(0))


class TestRunWithin:
    def test_report_structure(self, wpt_prepared):
        report = run_within(within_spec(), wpt_prepared)
        assert report.n_realizations == 3
        assert len(report.per_k) == 14
        assert [row["k"] for row in report.per_k] == list(range(1, 15))
        for row in report.per_k:
            assert 0.0 <= row["mean_test"] <= 1.0
            assert row["std_test"] >= 0.0

    def test_synthetic_corpus_is_learnable(self, wpt_prepared):
        report = run_within(within_spec(classifier="svm"), wpt_prepared)
        assert report.best_row()["mean_test"] >= 0.95

    def test_deterministic(self, wpt_prepared):
        a = run_within(within_spec(), wpt_prepared)
        b = run_within(within_spec(), wpt_prepared)
        assert a.to_dict() == b.to_dict()

    def test_seed_changes_splits(self, wpt_prepared):
        a = run_within(within_spec(), wpt_prepared)
        b = run_within(within_spec(master_seed=99), wpt_prepared)
        assert a.to_dict() != b.to_dict()

    def test_selection_finds_chatter_packet(self, wpt_prepared):
        report = run_within(within_spec(), wpt_prepared)
        for log in report.realizations:
            # 950 Hz tone sits in the 625-1250 Hz packet at level 3
            assert log["selection"]["index"] == 2

    def test_split_sizes(self, wpt_prepared):
        report = run_within(within_spec(), wpt_prepared)
        for log in report.realizations:
            assert log["n_train"] == 16  # round(0.67 * 12) per class
            assert log["n_test"] == 8

    def test_manifest_order_invariance(self):
        segments = make_segments(seed=2, n_stable=6, n_chatter=6)
        shuffled = list(segments)
        np.random.default_rng(0).shuffle(shuffled)
        a = run_within(within_spec(),
                       prepare_wpt_config(make_config(), segments, 3))
        b = run_within(within_spec(),
                       prepare_wpt_config(make_config(), shuffled, 3))
        assert a.to_dict() == b.to_dict()

    def test_grouped_split_keeps_groups_together(self):
        # two windows per segment share a group; they must not straddle sides
        segments = make_segments(seed=3, n_stable=6, n_chatter=6, seg_len=2000)
        prep = prepare_eemd_config(make_config(), segments, 1000, FAST_EEMD)
        spec = within_spec(method="eemd", grouped_split=True, n_realizations=2)
        report = run_within(spec, prep)
        groups = [s.group for s in prep.samples]
        for log in report.realizations:
            n = log["n_train"]
            assert n % 2 == 0  # whole segments only
        assert len(set(groups)) == 12

    def test_eemd_within_runs(self, eemd_prepared):
        spec = within_spec(method="eemd", n_realizations=2)
        report = run_within(spec, eemd_prepared)
        assert len(report.per_k) == 7
        assert report.best_row()["mean_test"] >= 0.9

    def test_wrong_mode_rejected(self, wpt_prepared):
        spec = ExperimentSpec("wpt", "svm", ("a",), ("b",), mode="transfer",
                              level=3)
        with pytest.raises(ValidationError):
            run_within(spec, wpt_prepared)


class TestRunTransfer:
    def make_prepared(self, stickout_id, seed, chatter_hz=950.0):
        from chatterdetect import CuttingConfig

        config = CuttingConfig(stickout_id, (900.0, 1000.0))
        segments = make_segments(seed=seed, chatter_hz=chatter_hz)
        return prepare_wpt_config(config, segments, 3)

    def spec(self, **kw):
        base = dict(
            method="wpt", classifier="logistic", train_configs=("a",),
            test_configs=("b",), mode="transfer", level=3, n_realizations=3,
            split=(0.70, 0.70), master_seed=1,
        )
        base.update(kw)
        return ExperimentSpec(**base)

    def test_transfer_generalizes_on_synthetic(self):
        train = self.make_prepared("a", seed=0)
        test = self.make_prepared("b", seed=10, chatter_hz=940.0)
        report = run_transfer(self.spec(), train, test)
        assert report.best_row()["mean_test"] >= 0.9

    def test_selection_frozen_from_training_side(self):
        train = self.make_prepared("a", seed=0)
        test = self.make_prepared("b", seed=10)
        report = run_transfer(self.spec(), train, test)
        for log in report.realizations:
            assert log["selection"]["index"] == 2

    def test_split_sizes(self):
        train = self.make_prepared("a", seed=0)
        test = self.make_prepared("b", seed=10)
        report = run_transfer(self.spec(), train, test)
        for log in report.realizations:
            assert log["n_train"] == 16  # round(0.7 * 12) per class
            assert log["n_test"] == 16

    def test_deterministic(self):
        train = self.make_prepared("a", seed=0)
        test = self.make_prepared("b", seed=10)
        a = run_transfer(self.spec(), train, test)
        b = run_transfer(self.spec(), train, test)
        assert a.to_dict() == b.to_dict()


class TestRunTransferCombined:
    def prepared(self, stickout_id, seed):
        from chatterdetect import CuttingConfig

        config = CuttingConfig(stickout_id, (900.0, 1000.0))
        segments = make_segments(seed=seed, n_stable=8, n_chatter=8)
        return prepare_wpt_config(config, segments, 3)

    def spec(self):
        return ExperimentSpec(
            method="wpt", classifier="logistic",
            train_configs=("a", "b"), test_configs=("c", "d"),
            mode="transfer-combined", level=3, n_realizations=2,
            split=(0.70, 0.70), master_seed=2,
        )

    def test_union_sizes_and_selections(self):
        trains = [self.prepared("a", 0), self.prepared("b", 1)]
        tests = [self.prepared("c", 2), self.prepared("d", 3)]
        report = run_transfer_combined(self.spec(), trains, tests)
        for log in report.realizations:
            assert log["n_train"] == 24  # 2 configs x round(0.7*8) per class
            assert log["n_test"] == 24
            assert set(log["selection"]) == {"a", "b", "c", "d"}
        assert report.best_row()["mean_test"] >= 0.9

    def test_deterministic(self):
        trains = [self.prepared("a", 0), self.prepared("b", 1)]
        tests = [self.prepared("c", 2), self.prepared("d", 3)]
        a = run_transfer_combined(self.spec(), trains, tests)
        b = run_transfer_combined(self.spec(), trains, tests)
        assert a.to_dict() == b.to_dict()

    def test_wrong_count_rejected(self):
        trains = [self.prepared("a", 0), self.prepared("b", 1)]
        with pytest.raises(ValidationError):
            run_transfer_combined(self.spec(), trains, [self.prepared("c", 2)])


class TestManifestFlow:
    def test_prepare_from_manifest(self, tmp_path):
        segments = make_segments(seed=4, n_stable=4, n_chatter=4)
        manifest_path = write_corpus_files(tmp_path, segments)
        manifest = load_manifest(manifest_path)
        prep = prepare_from_manifest(manifest, "synth", "wpt", level=3)
        assert len(prep.samples) == 8
        report = run_within(within_spec(n_realizations=2), prep)
        assert report.best_row()["mean_test"] >= 0.9


class TestEmitReport:
    def test_files_and_round_trip(self, tmp_path, wpt_prepared):
        report = run_within(within_spec(), wpt_prepared)
        json_path = emit_report(report, tmp_path, basename="exp")
        assert json_path.exists()
        assert (tmp_path / "exp.csv").exists()
        assert (tmp_path / "exp.txt").exists()
        with open(json_path) as fh:
            clone = ExperimentReport.from_dict(json.load(fh))
        assert clone.to_dict() == report.to_dict()
        csv_lines = (tmp_path / "exp.csv").read_text().splitlines()
        assert csv_lines[1].startswith("r1,")
        assert csv_lines[2].startswith("r1-r2,")
        assert len(csv_lines) == 1 + 14
