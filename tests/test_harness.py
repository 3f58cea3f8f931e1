import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chatterdetect import (
    CuttingConfig,
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
    reconstruct_packet,
    run_transfer,
    run_transfer_combined,
    run_within,
    wpt_decompose,
    wpt_features,
)
from chatterdetect import harness
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


def run_spec(**kw):
    return ExperimentSpec(**{"classifier": "logistic", "n_realizations": 3, **kw})


def renamed(prepared, stickout_id, **fields):
    """The same prepared samples under another stickout id (and fields)."""
    return dataclasses.replace(prepared, config=make_config(stickout_id), **fields)


class TestExperimentSpec:
    """The run settings, and the configs a run is given."""

    def test_within_requires_matching_configs(self, wpt_prepared):
        # a within run takes one prepared config, so both sides name it
        spec = run_within(run_spec(n_realizations=1), wpt_prepared).spec
        assert spec["train_configs"] == spec["test_configs"] == ["synth"]

    def test_transfer_requires_disjoint(self, wpt_prepared):
        with pytest.raises(ValidationError, match="distinct"):
            run_transfer(run_spec(), wpt_prepared, wpt_prepared)

    @pytest.mark.parametrize("train, test", [(("a", "b", "c"), ("d",)),
                                             (("a",), ("c", "d")),
                                             (("a", "b"), ("c", "d"))])
    def test_transfer_takes_one_config_per_side(self, train, test):
        with pytest.raises(ValidationError, match="one train and one test"):
            harness.check_transfer_configs(train, test, combined=False)

    @pytest.mark.parametrize("count", [0, -2])
    def test_realizations_must_be_positive(self, count):
        with pytest.raises(ValidationError, match="n_realizations"):
            run_spec(n_realizations=count)

    def test_seed_must_be_non_negative(self):
        with pytest.raises(ValidationError, match="master_seed must be non-negative, got -1"):
            run_spec(master_seed=-1)

    def test_combined_requires_four_distinct(self, wpt_prepared):
        a, b, c = (renamed(wpt_prepared, sid) for sid in "abc")
        with pytest.raises(ValidationError, match="distinct"):
            run_transfer_combined(run_spec(), [a, b], [b, c])
        with pytest.raises(ValidationError, match="two train and two test"):
            run_transfer_combined(run_spec(), [a], [b, c])

    @pytest.mark.parametrize("alias, name", [("logreg", "logistic"), ("boost", "boosting"),
                                             ("svm", "svm")])
    def test_classifier_alias_becomes_report_name(self, alias, name):
        assert ExperimentSpec(alias).classifier == name

    def test_unknown_classifier_rejected(self):
        with pytest.raises(ValidationError, match="unknown classifier 'perceptron'"):
            ExperimentSpec("perceptron")


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

    def test_bad_level_names_no_file(self, monkeypatch):
        # the level is refused before the first segment is decomposed
        monkeypatch.setattr(harness, "wpt_decompose", None)
        with pytest.raises(DomainError, match="^level must lie in 1..4, got 7$"):
            prepare_wpt_config(make_config(), make_segments(seed=0), level=7)

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
            assert np.array_equal(s.imf_features, eemd_features(imfs))
            assert np.array_equal(s.imf_band_fractions,
                                  in_band_fraction(np.asarray(imfs.imfs), band, FS))

    def test_empty_segments_rejected(self):
        with pytest.raises(ValidationError):
            prepare_wpt_config(make_config(), [], level=3)

    def test_short_segments_rejected(self):
        segs = make_segments(seed=1, n_stable=1, n_chatter=1, seg_len=500)
        with pytest.raises(ValidationError):
            prepare_eemd_config(make_config(), segs, window_len=1000)

    def test_missing_imf_reads_as_a_zero_row(self, eemd_prepared):
        # a window whose decomposition stopped before the selected IMF
        first, full = eemd_prepared.samples[:2]
        short = dataclasses.replace(first, imf_features=first.imf_features[:1],
                                    imf_band_fractions=first.imf_band_fractions[:1])
        prepared = dataclasses.replace(eemd_prepared, samples=[short, full])
        X = prepared.feature_rows([0, 1], {"index": 2})
        assert np.array_equal(X, np.vstack([np.zeros(7), full.imf_features[1]]))


def worker_segments(offsets=()):
    """Seven 1000-sample segments, one window each: six from the synthetic
    corpus and a constant one at window 1, which lands in a worker's chunk
    for any process count.  offsets maps a window index to a constant added
    to that segment, to mark its window."""
    segments = make_segments(seed=3, n_stable=3, n_chatter=3, seg_len=1000)
    segments.insert(1, Segment(TimeSeries(np.full(1000, 0.25), FS), 0, ("flat", 0)))
    for i, offset in dict(offsets).items():
        seg = segments[i]
        segments[i] = Segment(TimeSeries(seg.series.samples + offset, FS), seg.label, seg.source)
    return segments


@pytest.fixture
def pools(monkeypatch):
    """The worker counts of the process pools that prepare_eemd_config
    creates, in creation order."""
    import concurrent.futures

    made = []

    class SpyPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            made.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SpyPool)
    return made


def prepare_on(cpus, segments, params=FAST_EEMD):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness.ingest, "_usable_cpus", lambda: cpus)
        return prepare_eemd_config(make_config(), segments, 1000, params)


class TestEemdWorkers:
    """prepare_eemd_config deals large inputs to forked workers; its samples,
    reports and errors must be those of one process, and no worker may
    outlive the call."""

    @pytest.mark.parametrize("cpus, workers", [(2, 1), (3, 2), (16, 6)])
    def test_split_equals_one_process(self, pools, cpus, workers):
        import multiprocessing

        segments = worker_segments()
        serial = prepare_on(1, segments)
        split = prepare_on(cpus, segments)
        # one worker fewer than chunks, and no more chunks than the 7 windows
        assert pools == [workers]
        assert multiprocessing.active_children() == []
        assert ("flat", 0, 0) not in [s.sample_id for s in split.samples]
        assert [s.sample_id for s in split.samples] == [s.sample_id for s in serial.samples]
        assert len(split.samples) == 6
        for a, b in zip(split.samples, serial.samples):
            assert a.imf_features.tobytes() == b.imf_features.tobytes()
            assert a.imf_band_fractions.tobytes() == b.imf_band_fractions.tobytes()

    def test_reports_through_main_are_byte_equal(self, pools, tmp_path, monkeypatch, capsys):
        from chatterdetect.cli import main

        manifest = write_corpus_files(tmp_path, worker_segments())
        outputs = []
        for cpus in (1, 2):
            monkeypatch.setattr(harness.ingest, "_usable_cpus", lambda: cpus)
            out = tmp_path / f"cpus{cpus}"
            assert main(["evaluate-within", "--manifest", str(manifest), "--stickout", "synth",
                         "--method", "eemd", "--ensemble-size", "4", "--classifier", "logreg",
                         "--realizations", "2", "--out", str(out)]) == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert pools == [1]
        assert len(outputs[0]) == 3 and outputs[0] == outputs[1]
        report = json.loads(outputs[0]["within_synth_eemd_logistic.json"])
        assert report["realizations"][0]["n_train"] + report["realizations"][0]["n_test"] == 6
        capsys.readouterr()

    def test_first_error_in_window_order_reaches_main(self, pools, tmp_path, monkeypatch,
                                                      capsys):
        # windows 3 (a worker's) and 4 (the caller's) fail; one process would
        # report window 3's error, and so must the split
        import multiprocessing

        from chatterdetect.cli import main

        def faulty(imfs):
            level = float(np.mean(imfs.residue))
            if level > 50:
                raise DomainError(f"window at level {level:.0f}")
            return eemd_features(imfs)

        monkeypatch.setattr(harness, "eemd_features", faulty)
        manifest = write_corpus_files(tmp_path, worker_segments({3: 100.0, 4: 200.0}))
        records = []
        for cpus in (1, 2):
            monkeypatch.setattr(harness.ingest, "_usable_cpus", lambda: cpus)
            assert main(["evaluate-within", "--manifest", str(manifest), "--stickout", "synth",
                         "--method", "eemd", "--ensemble-size", "4", "--classifier", "logreg",
                         "--out", str(tmp_path / "out")]) == 1
            records.append(capsys.readouterr().err)
            assert multiprocessing.active_children() == []
        assert pools == [1]
        assert records[0] == records[1]
        assert json.loads(records[0]) == {
            "error": "DomainError",
            "message": "file 'file03' interval 0 window 0: window at level 100"}

    def test_below_the_size_one_process(self, pools):
        # 5 windows x 4 members x 1000 samples is at the gate, 4 windows below it
        segments = worker_segments()
        assert len(prepare_on(2, segments[:5]).samples) == 4
        assert pools == [1]
        assert len(prepare_on(2, segments[:4]).samples) == 3
        assert len(prepare_on(2, segments[:4], EemdParams(ensemble_size=5)).samples) == 3
        assert pools == [1, 1]
        # without noise every window is one plain EMD, whatever the ensemble size
        assert len(prepare_on(2, segments, EemdParams(ensemble_size=4,
                                                      noise_std_fraction=0.0)).samples) == 6
        assert pools == [1, 1]

    def test_usable_cpus_decide(self, pools):
        # unpatched: under `taskset -c 0` the affinity call alone keeps the
        # preparation in one process
        cpus = harness.ingest._usable_cpus()
        prepared = prepare_eemd_config(make_config(), worker_segments(), 1000, FAST_EEMD)
        assert len(prepared.samples) == 6
        assert pools == ([min(cpus, 7) - 1] if cpus > 1 else [])

    def test_one_cpu_one_process(self, pools):
        assert len(prepare_on(1, worker_segments()).samples) == 6
        assert pools == []

    def test_live_thread_one_process(self, pools):
        import threading

        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
        try:
            assert len(prepare_on(2, worker_segments()).samples) == 6
        finally:
            done.set()
            thread.join()
        assert pools == []

    def test_no_fork_one_process(self, pools, monkeypatch):
        import multiprocessing

        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert len(prepare_on(2, worker_segments()).samples) == 6
        assert pools == []


class TestLazyPacketFeatures:
    @pytest.mark.parametrize("level", [3, 4])
    def test_rows_match_eager_featurization(self, level):
        segments = make_segments(seed=0)
        prepared = prepare_wpt_config(make_config(), segments, level)
        series = {(*seg.source, 0): seg.series for seg in segments}
        everything = range(len(prepared.samples))
        for j in range(1, 2**level + 1):
            eager = np.vstack([
                wpt_features(
                    reconstruct_packet(wpt_decompose(series[s.sample_id], level), level, j).samples,
                    FS)
                for s in prepared.samples
            ])
            assert np.array_equal(prepared.feature_rows(everything, {"index": j}), eager)
            assert np.array_equal(prepared.feature_rows(everything, {"index": j}), eager)
        assert not np.isnan(np.stack([s.packet_features for s in prepared.samples])).any()

    def test_each_row_is_featurized_at_most_once(self, monkeypatch):
        calls = []

        def counting(x, sample_rate_hz):
            calls.append(x.size)
            return wpt_features(x, sample_rate_hz)

        monkeypatch.setattr(harness, "wpt_features", counting)
        prepared = prepare_wpt_config(make_config(), make_segments(seed=0), 3)
        assert calls == []
        assert all(np.isnan(s.packet_features).all() for s in prepared.samples)
        for seed in (0, 1, 0):
            run_within(run_spec(n_realizations=3, master_seed=seed), prepared)
        filled = sum(int((~np.isnan(s.packet_features[:, 0])).sum()) for s in prepared.samples)
        assert 0 < len(calls) == filled <= len(prepared.samples) * 2**3

    def test_each_segment_is_decomposed_once(self, monkeypatch):
        calls = []

        def counting(ts, level):
            calls.append(ts.samples.size)
            return wpt_decompose(ts, level)

        monkeypatch.setattr(harness, "wpt_decompose", counting)
        segments = make_segments(seed=0)
        within = prepare_wpt_config(make_config(), segments, 3)
        combined = [
            prepare_wpt_config(CuttingConfig(name, (900.0, 1000.0)),
                               make_segments(seed=seed, n_stable=8, n_chatter=8), 3)
            for seed, name in enumerate("abcd")
        ]
        assert len(calls) == len(segments) + 4 * 16
        assert calls[: len(segments)] == [seg.series.samples.size for seg in segments]
        calls.clear()
        run_within(run_spec(), within)
        run_transfer_combined(
            run_spec(n_realizations=2), combined[:2], combined[2:])
        assert calls == []
        for prep in [within, *combined]:  # the runs did read rows, from the kept leaves
            assert not np.isnan(np.stack([s.packet_features for s in prep.samples])).all()


@st.composite
def labeled_groups(draw, min_groups=2):
    """Shuffled labels with at least `min_groups` single-class groups per class."""
    labels, groups = [], []
    for cls in (0, 1):
        sizes = draw(st.lists(st.integers(1, 3), min_size=min_groups, max_size=6))
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

    @staticmethod
    def retrying_split(labels, fraction, rng, groups, need_complement):
        """The earlier implementation: redraw up to 100 times until each
        needed side holds both classes."""
        keys = {}
        for i, g in enumerate(range(labels.size) if groups is None else groups):
            keys.setdefault(g, []).append(i)
        units = [tuple(v) for _, v in sorted(keys.items())]
        unit_labels = np.asarray([labels[u[0]] for u in units])
        for _ in range(100):
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
            part = np.asarray(sorted(part), dtype=int)
            rest = np.asarray(sorted(rest), dtype=int)
            ok = part.size > 0 and np.unique(labels[part]).size == 2
            if need_complement:
                ok = ok and rest.size > 0 and np.unique(labels[rest]).size == 2
            if ok:
                return part, rest
        return None

    @settings(max_examples=300, deadline=None)
    @given(labeled_groups(min_groups=1), st.floats(0.05, 0.95), st.booleans(),
           st.booleans(), st.integers(0, 2**32 - 1))
    def test_equals_the_retrying_draw(self, data, fraction, grouped, need_complement, seed):
        # a class gives round(fraction * its group count) groups whatever the
        # random state, so the first draw decides; one draw matches the
        # retries' indices where they succeed and refuses where they give up
        labels, groups = data
        groups = groups if grouped else None
        expected = self.retrying_split(labels, fraction, np.random.default_rng(seed), groups,
                                       need_complement)
        if expected is None:
            with pytest.raises(DomainError, match=f"cannot draw {fraction} of "):
                _draw_split(labels, fraction, np.random.default_rng(seed), groups,
                            need_complement)
        else:
            part, rest = _draw_split(labels, fraction, np.random.default_rng(seed), groups,
                                     need_complement)
            assert np.array_equal(part, expected[0]) and np.array_equal(rest, expected[1])


class TestRunWithin:
    def test_report_structure(self, wpt_prepared):
        report = run_within(run_spec(), wpt_prepared)
        assert report.n_realizations == 3
        assert len(report.per_k) == 14
        assert [row["k"] for row in report.per_k] == list(range(1, 15))
        for row in report.per_k:
            assert 0.0 <= row["mean_test"] <= 1.0
            assert row["std_test"] >= 0.0

    def test_one_fit_per_feature_set(self, wpt_prepared, monkeypatch):
        # RFE fits d, d-1, ..., 1 features; the accuracy table reuses those
        # models, so a realization makes d fits, not 2d
        fits = []
        make_trainer = harness.make_trainer

        def counting(classifier, seed=0):
            trainer = make_trainer(classifier, seed=seed)

            def fit(X, y):
                fits.append(X.shape[1])
                return trainer(X, y)
            return fit

        monkeypatch.setattr(harness, "make_trainer", counting)
        run_within(run_spec(n_realizations=2), wpt_prepared)
        assert fits == list(range(14, 0, -1)) * 2

    def test_synthetic_corpus_is_learnable(self, wpt_prepared):
        report = run_within(run_spec(classifier="svm"), wpt_prepared)
        assert report.best_row()["mean_test"] >= 0.95

    def test_deterministic(self, wpt_prepared):
        a = run_within(run_spec(), wpt_prepared)
        b = run_within(run_spec(), wpt_prepared)
        assert a.to_dict() == b.to_dict()

    def test_seed_changes_splits(self, wpt_prepared):
        a = run_within(run_spec(), wpt_prepared)
        b = run_within(run_spec(master_seed=99), wpt_prepared)
        assert a.to_dict() != b.to_dict()

    def test_selection_finds_chatter_packet(self, wpt_prepared):
        report = run_within(run_spec(), wpt_prepared)
        for log in report.realizations:
            # 950 Hz tone sits in the 625-1250 Hz packet at level 3
            assert log["selection"]["index"] == 2

    def test_split_sizes(self, wpt_prepared):
        report = run_within(run_spec(), wpt_prepared)
        for log in report.realizations:
            assert log["n_train"] == 16  # round(0.67 * 12) per class
            assert log["n_test"] == 8

    def test_manifest_order_invariance(self):
        segments = make_segments(seed=2, n_stable=6, n_chatter=6)
        shuffled = list(segments)
        np.random.default_rng(0).shuffle(shuffled)
        a = run_within(run_spec(),
                       prepare_wpt_config(make_config(), segments, 3))
        b = run_within(run_spec(),
                       prepare_wpt_config(make_config(), shuffled, 3))
        assert a.to_dict() == b.to_dict()

    def test_grouped_split_keeps_groups_together(self):
        # two windows per segment share a group; they must not straddle sides
        segments = make_segments(seed=3, n_stable=6, n_chatter=6, seg_len=2000)
        prep = prepare_eemd_config(make_config(), segments, 1000, FAST_EEMD)
        spec = run_spec(grouped_split=True, n_realizations=2)
        report = run_within(spec, prep)
        groups = [s.group for s in prep.samples]
        for log in report.realizations:
            n = log["n_train"]
            assert n % 2 == 0  # whole segments only
        assert len(set(groups)) == 12

    def test_eemd_within_runs(self, eemd_prepared):
        report = run_within(run_spec(n_realizations=2), eemd_prepared)
        assert len(report.per_k) == 7
        assert report.best_row()["mean_test"] >= 0.9


class TestAmplitudeInvariance:
    """A power of two scales every sample exactly, and nothing in the
    pipeline depends on scale, so the report must not notice."""

    @staticmethod
    def report(prepared):
        # json's float repr round-trips, so equal text is equal bits
        return json.dumps(run_within(run_spec(), prepared).to_dict())

    @pytest.fixture(scope="class")
    def unscaled(self, wpt_prepared, eemd_prepared):
        return self.report(wpt_prepared), self.report(eemd_prepared)

    @settings(max_examples=3, deadline=None)
    @given(st.sampled_from([-2, 1, 10]))
    def test_scaled_segments_give_the_same_report(self, unscaled, k):
        def scaled(segments):
            return [dataclasses.replace(s, series=TimeSeries(s.series.samples * 2.0**k, FS))
                    for s in segments]

        wpt = prepare_wpt_config(make_config(), scaled(make_segments(seed=0)), level=3)
        segments = make_segments(seed=0, n_stable=6, n_chatter=6, seg_len=2000)
        eemd_ = prepare_eemd_config(make_config(), scaled(segments), window_len=1000,
                                    eemd_params=FAST_EEMD)
        assert (self.report(wpt), self.report(eemd_)) == unscaled


class TestRunTransfer:
    def make_prepared(self, stickout_id, seed, chatter_hz=950.0):
        from chatterdetect import CuttingConfig

        config = CuttingConfig(stickout_id, (900.0, 1000.0))
        segments = make_segments(seed=seed, chatter_hz=chatter_hz)
        return prepare_wpt_config(config, segments, 3)

    def spec(self):
        return run_spec(master_seed=1)

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
        return run_spec(n_realizations=2, master_seed=2)

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


class TestSpecAgreement:
    """The prepared configs of one run share one decomposition, and the
    report's spec reads it, and the stickouts, from them."""

    def test_method(self, wpt_prepared, eemd_prepared):
        with pytest.raises(ValidationError,
                           match="'b' was prepared with eemd .*, but stickout 'synth' with wpt"):
            run_transfer(run_spec(), wpt_prepared, renamed(eemd_prepared, "b"))

    def test_level(self, wpt_prepared):
        with pytest.raises(ValidationError,
                           match="'level': 4}, but stickout 'synth' with wpt {'level': 3}"):
            run_transfer(run_spec(), wpt_prepared,
                         renamed(wpt_prepared, "b", params={"level": 4}))

    def test_window_len(self, eemd_prepared):
        a, b, c = (renamed(eemd_prepared, sid) for sid in "abc")
        d = renamed(eemd_prepared, "d", params={"window_len": 500})
        with pytest.raises(ValidationError,
                           match="'window_len': 500}, but stickout 'a' with eemd {'window_len': 1000}"):
            run_transfer_combined(run_spec(), [a, b], [c, d])

    def test_within_stickout(self, wpt_prepared):
        spec = run_within(run_spec(n_realizations=1), renamed(wpt_prepared, "a")).spec
        assert spec["train_configs"] == ["a"]
        assert (spec["mode"], spec["split"]) == ("within", [0.67, 0.33])

    def test_transfer_train_stickout(self, wpt_prepared):
        spec = run_transfer(run_spec(), renamed(wpt_prepared, "b"),
                            renamed(wpt_prepared, "a")).spec
        assert (spec["train_configs"], spec["test_configs"]) == (["b"], ["a"])
        assert (spec["mode"], spec["split"]) == ("transfer", [0.7, 0.7])

    def test_combined_test_stickouts(self, wpt_prepared):
        a, b, c, d = (renamed(wpt_prepared, sid) for sid in "abcd")
        spec = run_transfer_combined(run_spec(n_realizations=1), [a, b], [d, c]).spec
        assert (spec["train_configs"], spec["test_configs"]) == (["a", "b"], ["d", "c"])
        assert (spec["mode"], spec["split"]) == ("transfer-combined", [0.7, 0.7])

    def test_spec_keeps_only_the_method_parameter(self, wpt_prepared, eemd_prepared):
        wpt = run_within(run_spec(n_realizations=1), wpt_prepared).spec
        eemd = run_within(run_spec(n_realizations=1), eemd_prepared).spec
        assert wpt["method"] == "wpt" and wpt["level"] == 3 and "window_len" not in wpt
        assert eemd["method"] == "eemd" and eemd["window_len"] == 1000 and "level" not in eemd
        assert list(wpt) == ["method", "classifier", "train_configs", "test_configs", "mode",
                             "level", "n_realizations", "split", "master_seed", "grouped_split"]


class TestOneSampleRate:
    @pytest.mark.parametrize("method", ["wpt", "eemd"])
    def test_mixed_rates_rejected(self, method):
        segments = make_segments(seed=0, n_stable=2, n_chatter=2, seg_len=2000)
        odd = segments[2]
        segments[2] = Segment(TimeSeries(odd.series.samples, 2 * FS), odd.label, odd.source)
        with pytest.raises(ValidationError, match="'chatter00' is sampled at 20000.0 Hz, "
                                                  "but file 'stable00' at 10000.0 Hz"):
            if method == "wpt":
                prepare_wpt_config(make_config(), segments, 3)
            else:
                prepare_eemd_config(make_config(), segments, 1000, FAST_EEMD)

    def test_transfer_across_rates_rejected(self, wpt_prepared):
        fast = prepare_wpt_config(make_config("b"), make_segments(seed=1, fs=2 * FS), 3)
        with pytest.raises(ValidationError, match=(
                "^a run's stickouts must share one sample rate: stickout 'b' was prepared "
                "at 20000.0 Hz, but stickout 'synth' at 10000.0 Hz$")):
            run_transfer(run_spec(), wpt_prepared, fast)

    def test_eemd_transfer_across_rates_rejected(self, eemd_prepared):
        fast = renamed(eemd_prepared, "b", sample_rate_hz=2 * FS)
        with pytest.raises(ValidationError, match="'b' was prepared at 20000.0 Hz"):
            run_transfer(run_spec(), eemd_prepared, fast)

    def test_combined_across_rates_rejected(self, wpt_prepared):
        a, b, d = (renamed(wpt_prepared, sid) for sid in "abd")
        c = prepare_wpt_config(make_config("c"), make_segments(seed=1, fs=2 * FS), 3)
        with pytest.raises(ValidationError, match="stickout 'c' was prepared at 20000.0 Hz, "
                                                  "but stickout 'a' at 10000.0 Hz"):
            run_transfer_combined(run_spec(), [a, b], [c, d])


def report_sha256(report):
    text = json.dumps(report.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class TestGoldenReports:
    """Report digests on the synthetic corpus, in canonical JSON; they pin
    preparation, selection, RFE and the trainers together."""

    @pytest.mark.parametrize("level, digest", [
        (3, "711505d57474c48418d9e276fdd9cc773c1e7e2f7808d213b16d58cded8ea60f"),
        (4, "1d014163f039c3681469500c175520371bd2ecfe10c1f30703a1e19496e375f2"),
    ], ids=["3", "4"])
    def test_wpt_within_svm(self, level, digest):
        prepared = prepare_wpt_config(make_config(), make_segments(seed=0), level)
        report = run_within(run_spec(classifier="svm"), prepared)
        assert report_sha256(report) == digest

    def test_eemd_within_logistic(self, eemd_prepared):
        report = run_within(run_spec(n_realizations=2), eemd_prepared)
        assert report_sha256(report) == (
            "f77a1662be40cd040a021304a248f73f05a41433a3af94527ed6df73bd9c77f3")

    def test_wpt_transfer_across_bands(self):
        # the packet frozen on the 900-1000 Hz training band (packet 4 of 16)
        # does not overlap the 2900-3000 Hz test band, yet the test side must
        # carry its features: the test chatter sits at 950 Hz, so a correct
        # run scores 1.0 on the test side
        train = prepare_wpt_config(CuttingConfig("a", (900.0, 1000.0)),
                                   make_segments(seed=0), 4)
        test = prepare_wpt_config(CuttingConfig("b", (2900.0, 3000.0)),
                                  make_segments(seed=10), 4)
        report = run_transfer(run_spec(n_realizations=2, master_seed=1), train, test)
        assert report_sha256(report) == (
            "efefb77ff2aa9829147dfb28441d7ebab79ca30dfa0e53ed977c4fd031bc5a1e")

    def test_wpt_transfer_combined(self):
        def prepared(stickout_id, seed):
            segments = make_segments(seed=seed, n_stable=8, n_chatter=8)
            return prepare_wpt_config(CuttingConfig(stickout_id, (900.0, 1000.0)), segments, 4)

        spec = run_spec(n_realizations=2, master_seed=2)
        report = run_transfer_combined(spec, [prepared("a", 0), prepared("b", 1)],
                                       [prepared("c", 2), prepared("d", 3)])
        assert report_sha256(report) == (
            "cd20abcf3ef4283ca89da6603193055317e60fa18d9fac717896110d3011566b")


class TestManifestFlow:
    def test_prepare_from_manifest(self, tmp_path):
        segments = make_segments(seed=4, n_stable=4, n_chatter=4)
        manifest_path = write_corpus_files(tmp_path, segments)
        manifest = load_manifest(manifest_path)
        prep = prepare_from_manifest(manifest, "synth", "wpt", level=3)
        assert len(prep.samples) == 8
        report = run_within(run_spec(n_realizations=2), prep)
        assert report.best_row()["mean_test"] >= 0.9

    def test_unknown_method_rejected(self, tmp_path, monkeypatch):
        manifest = load_manifest(write_corpus_files(tmp_path, make_segments(seed=4, n_stable=2,
                                                                            n_chatter=2)))
        monkeypatch.setattr(harness, "segments_from_manifest", None)  # fails before any load
        with pytest.raises(ValidationError, match="unknown method 'WPT'"):
            prepare_from_manifest(manifest, "synth", "WPT", level=3)

    @pytest.mark.parametrize("method, params, message", [
        ("wpt", {"level": 0}, "level must lie in 1..4, got 0"),
        ("wpt", {"level": 7}, "level must lie in 1..4, got 7"),
        ("eemd", {"window_len": 3}, "window_len must be at least 4 for EEMD, got 3"),
    ])
    def test_bad_parameter_rejected_before_loading(self, tmp_path, monkeypatch, method,
                                                   params, message):
        manifest = load_manifest(write_corpus_files(tmp_path, make_segments(seed=4, n_stable=2,
                                                                            n_chatter=2)))
        monkeypatch.setattr(harness, "segments_from_manifest", None)  # fails before any load
        with pytest.raises(DomainError, match=f"^{message}$"):
            prepare_from_manifest(manifest, "synth", method, **params)

    @pytest.mark.parametrize("ids, first", [(["file00", "file01", "file00"], 0),
                                            ([None, "rec0000"], 0),
                                            (["rec0002", "x", None], 0)])
    def test_duplicate_file_ids_rejected(self, tmp_path, ids, first):
        path = write_corpus_files(tmp_path, make_segments(seed=4, n_stable=2, n_chatter=2))
        doc = json.loads(path.read_text())
        doc["records"] = doc["records"][: len(ids)]
        for rec, file_id in zip(doc["records"], ids):
            rec.pop("file_id")
            if file_id is not None:
                rec["file_id"] = file_id
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError) as exc:
            load_manifest(path)
        assert str(exc.value).startswith(
            f"{path}: manifest records {first} and {len(ids) - 1} share file_id")


class TestEmitReport:
    def test_files_and_round_trip(self, tmp_path, wpt_prepared):
        report = run_within(run_spec(), wpt_prepared)
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


@st.composite
def report_records(draw):
    """A report's spec record and realization logs, as a run writes them."""
    method = draw(st.sampled_from(sorted(harness.FEATURE_NAMES)))
    d = len(harness.FEATURE_NAMES[method])
    spec = {"method": method,
            "classifier": draw(st.sampled_from(["svm", "logistic", "forest", "boosting"])),
            "mode": draw(st.sampled_from(["within", "transfer", "transfer-combined"])),
            "master_seed": draw(st.integers(0, 99))}
    accuracy = st.floats(0, 1)
    logs = [{"realization": r, "ranking": draw(st.permutations(range(d))),
             "accuracies": [[k, draw(accuracy), draw(accuracy)] for k in range(1, d + 1)],
             "n_train": draw(st.integers(1, 60)), "n_test": draw(st.integers(1, 60))}
            for r in range(draw(st.integers(1, 6)))]
    return spec, logs


def reread(report):
    """The report read back from its JSON text."""
    return ExperimentReport.from_dict(json.loads(json.dumps(report.to_dict())))


class TestReportRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(report_records())
    def test_aggregated_logs(self, record):
        report = harness._aggregate(*record)
        assert reread(report) == report

    def test_run_reports(self, wpt_prepared, eemd_prepared):
        a, b, c, d = (renamed(wpt_prepared, sid) for sid in "abcd")
        for report in (run_within(run_spec(n_realizations=2), wpt_prepared),
                       run_within(run_spec(n_realizations=2), eemd_prepared),
                       run_transfer_combined(run_spec(n_realizations=2), [a, b], [c, d])):
            assert reread(report) == report
