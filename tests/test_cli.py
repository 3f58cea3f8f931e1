import argparse
import hashlib
import json
import os
import re
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from chatterdetect import (
    EemdParams,
    ExperimentSpec,
    design_lowpass,
    filter_and_downsample,
    harness,
    load_manifest,
    load_timeseries,
    run_transfer,
    run_transfer_combined,
)
from chatterdetect import cli
from chatterdetect.cli import main
from synthetic_corpus import FS, make_segments, write_corpus_files


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("corpus")
    segments = make_segments(seed=0, n_stable=6, n_chatter=6)
    manifest = write_corpus_files(tmp, segments)
    return tmp, manifest


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPreprocess:
    def test_round_rates(self, tmp_path, capsys):
        src = tmp_path / "raw.csv"
        rng = np.random.default_rng(0)
        np.savetxt(src, rng.standard_normal(16000), delimiter=",")
        code, out, _ = run(
            capsys, "preprocess", "--input", str(src),
            "--sample-rate", "160000", "--target-rate", "10000",
            "--out", str(tmp_path),
        )
        assert code == 0
        record = json.loads(out)
        assert record["n_samples"] == 1000
        assert record["sample_rate_hz"] == 10000.0
        written = np.loadtxt(record["output"], delimiter=",")
        assert written.size == 1000

    def test_missing_file_exit_2(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "preprocess", "--input", str(tmp_path / "absent.csv"),
            "--sample-rate", "160000", "--target-rate", "10000",
        )
        assert code == 2
        assert json.loads(err)["error"] == "IOError"

    def test_non_finite_sample_exit_1(self, tmp_path, capsys):
        src = tmp_path / "raw.csv"
        src.write_text("0.5\n0.25\nnan\n0.75\n")
        code, _, err = run(
            capsys, "preprocess", "--input", str(src),
            "--sample-rate", "160000", "--target-rate", "10000",
        )
        assert code == 1
        record = json.loads(err)
        assert record["error"] == "ParseError"
        assert "line 3" in record["message"]

    def test_parse_error_names_the_file(self, tmp_path, capsys):
        src = tmp_path / "two_lines.csv"
        src.write_text("0.5\nnan\n")
        code, _, err = run(
            capsys, "preprocess", "--input", str(src),
            "--sample-rate", "160000", "--target-rate", "10000", "--out", str(tmp_path),
        )
        assert code == 1
        record = error_record(err)
        assert record["error"] == "ParseError"
        assert record["message"].startswith(f"{src}: line 2: non-finite")

    def test_bad_rate_exit_1(self, tmp_path, capsys):
        src = tmp_path / "raw.csv"
        np.savetxt(src, np.arange(100.0), delimiter=",")
        code, _, err = run(
            capsys, "preprocess", "--input", str(src),
            "--sample-rate", "1000", "--target-rate", "300",
        )
        assert code == 1
        assert "error" in json.loads(err)

    def test_output_bytes_match_savetxt(self, tmp_path, capsys):
        src = tmp_path / "raw.csv"
        t = np.arange(3200) / 160000
        x = np.random.default_rng(7).standard_normal(t.size)
        np.savetxt(src, np.column_stack([t, x]), delimiter=",", fmt="%.8f,%.6f")
        code, out, _ = run(
            capsys, "preprocess", "--input", str(src), "--sample-rate", "160000",
            "--target-rate", "10000", "--cutoff", "4500", "--out", str(tmp_path),
        )
        assert code == 0
        ts = load_timeseries(src, 160000)
        expected = filter_and_downsample(ts, design_lowpass(100, 4500, 160000), 10000)
        np.savetxt(tmp_path / "expected.csv", expected.samples, delimiter=",")
        written = Path(json.loads(out)["output"]).read_bytes()
        assert written == (tmp_path / "expected.csv").read_bytes()

    def test_too_short_recording_exit_1(self, tmp_path, capsys):
        src = tmp_path / "short.csv"
        src.write_text("0.5\n0.25\n")
        code, _, err = run(
            capsys, "preprocess", "--input", str(src),
            "--sample-rate", "160000", "--target-rate", "10000",
            "--out", str(tmp_path),
        )
        assert code == 1
        record = error_record(err)
        assert record["error"] == "DomainError"
        for fragment in (str(src), "2 samples", "factor 16"):
            assert fragment in record["message"]

    @pytest.mark.parametrize("order", ["2000", "400", "300"])
    def test_degenerate_filter_exit_1(self, tmp_path, capsys, order):
        src = tmp_path / "raw.csv"
        np.savetxt(src, np.random.default_rng(0).standard_normal(16000), delimiter=",")
        out = tmp_path / "out.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run(
                capsys, "preprocess", "--input", str(src), "--sample-rate", "160000",
                "--target-rate", "10000", "--cutoff", "4500", "--filter-order", order,
                "--out", str(out),
            )
        assert (code, stdout, out.exists()) == (1, "", False)
        record = error_record(err)
        assert record["error"] == "DomainError"
        for fragment in (f"order-{order}", "4500 Hz", "160000 Hz"):
            assert fragment in record["message"]


class TestDecompose:
    def test_wpt_dump_bytes(self, tmp_path, capsys):
        src = tmp_path / "sig.csv"
        np.savetxt(src, np.sin(np.arange(1001) * 0.3), delimiter=",")
        code, out, _ = run(
            capsys, "decompose", "--input", str(src), "--method", "wpt",
            "--level", "4", "--out", str(tmp_path),
        )
        assert code == 0
        data = Path(json.loads(out)["output"]).read_bytes()
        assert hashlib.sha256(data).hexdigest() == (
            "222d0e68eb381301e7a4b4df70a5e24ebc2c82595daa69216ff23d0af153b343")

    def test_wpt_dump(self, tmp_path, capsys):
        src = tmp_path / "sig.csv"
        np.savetxt(src, np.sin(np.arange(512) * 0.3), delimiter=",")
        code, out, _ = run(
            capsys, "decompose", "--input", str(src), "--method", "wpt",
            "--level", "2", "--out", str(tmp_path),
        )
        assert code == 0
        lines = open(json.loads(out)["output"]).read().splitlines()
        # 2 packets at level 1 plus 4 at level 2
        assert len(lines) == 6

    def test_eemd_dump(self, tmp_path, capsys):
        src = tmp_path / "sig.csv"
        t = np.arange(600) / FS
        np.savetxt(src, np.sin(2 * np.pi * 950 * t) + np.sin(2 * np.pi * 60 * t),
                   delimiter=",")
        code, out, _ = run(
            capsys, "decompose", "--input", str(src), "--method", "eemd",
            "--ensemble-size", "4", "--out", str(tmp_path),
        )
        assert code == 0
        table = np.genfromtxt(json.loads(out)["output"], delimiter=",", names=True)
        assert "residue" in table.dtype.names
        assert "imf1" in table.dtype.names


class TestSelectAndFeatures:
    def test_select_wpt(self, corpus, capsys):
        tmp, manifest = corpus
        code, out, _ = run(
            capsys, "select", "--manifest", str(manifest), "--stickout", "synth",
            "--method", "wpt", "--level", "3", "--out", str(tmp),
        )
        assert code == 0
        record = json.loads(out)
        assert record["index"] == 2  # 950 Hz in the 625-1250 Hz packet
        stored = json.loads(open(record["output"]).read())
        assert stored["kind"] == "packet"

    def test_features_wpt(self, corpus, capsys):
        tmp, manifest = corpus
        code, out, _ = run(
            capsys, "features", "--manifest", str(manifest), "--stickout", "synth",
            "--method", "wpt", "--level", "3", "--out", str(tmp),
        )
        assert code == 0
        record = json.loads(out)
        table = np.genfromtxt(record["output"], delimiter=",", names=True)
        assert record["n_samples"] == 12
        assert len(table.dtype.names) == 15  # 14 features + label

    @pytest.mark.parametrize("band, n_chatter, message", [
        ([6000.0, 7000.0], 2, "chatter band (6000.0, 7000.0) overlaps no packet below the "
                              "Nyquist frequency 5000.0 Hz"),
        ([900.0, 1000.0], 0, "no chatter-labeled training samples for selection"),
    ], ids=["band-above-nyquist", "no-chatter"])
    def test_selection_error_names_the_stickout(self, capsys, tmp_path, band, n_chatter,
                                                message):
        manifest = write_corpus_files(tmp_path, make_segments(seed=0, n_stable=2,
                                                              n_chatter=n_chatter))
        doc = json.loads(manifest.read_text())
        doc["configs"]["synth"]["chatter_band_hz"] = band
        manifest.write_text(json.dumps(doc))
        code, out, err = run(
            capsys, "select", "--manifest", str(manifest), "--stickout", "synth",
            "--method", "wpt", "--level", "3", "--out", str(tmp_path),
        )
        assert code == 1 and out == ""
        assert error_record(err) == {"error": "DomainError",
                                     "message": f"stickout 'synth': {message}"}

    def test_unknown_stickout_exit_1(self, corpus, capsys):
        tmp, manifest = corpus
        code, _, err = run(
            capsys, "select", "--manifest", str(manifest), "--stickout", "nope",
            "--method", "wpt",
        )
        assert code == 1
        assert "error" in json.loads(err)


class TestTrainAndEvaluate:
    def test_train_from_features_csv(self, corpus, capsys, tmp_path):
        tmp, manifest = corpus
        code, out, _ = run(
            capsys, "features", "--manifest", str(manifest), "--stickout", "synth",
            "--method", "wpt", "--level", "3", "--out", str(tmp_path),
        )
        features_csv = json.loads(out)["output"]
        code, out, _ = run(
            capsys, "train", "--features", features_csv, "--classifier", "svm",
            "--out", str(tmp_path),
        )
        assert code == 0
        record = json.loads(out)
        assert record["train_accuracy"] == 1.0
        model = json.loads(open(record["output"]).read())
        assert model["format"] == "chatterdetect-model-v1"

    def test_evaluate_within(self, corpus, capsys, tmp_path):
        tmp, manifest = corpus
        code, out, _ = run(
            capsys, "evaluate-within", "--manifest", str(manifest),
            "--stickout", "synth", "--method", "wpt", "--level", "3",
            "--classifier", "logreg", "--realizations", "2",
            "--out", str(tmp_path),
        )
        assert code == 0
        record = json.loads(out)
        assert record["best"]["mean_test"] >= 0.9
        report = json.loads(open(record["output"]).read())
        assert report["n_realizations"] == 2

    @pytest.mark.parametrize("grouped, noun", [([], "samples"),
                                               (["--grouped-split"], "segments")])
    def test_split_refusal_names_the_class_counts(self, capsys, tmp_path, grouped, noun):
        # 0.67 of one chatter segment rounds to all of it, leaving the test
        # side without chatter whatever the seed
        manifest = write_corpus_files(tmp_path, make_segments(seed=0, n_stable=4, n_chatter=1))
        code, out, err = run(
            capsys, "evaluate-within", "--manifest", str(manifest), "--stickout", "synth",
            "--method", "wpt", "--level", "3", "--classifier", "logreg", *grouped,
            "--out", str(tmp_path),
        )
        assert code == 1 and out == ""
        assert error_record(err) == {
            "error": "DomainError",
            "message": f"stickout 'synth': cannot draw 0.67 of {{0: 4, 1: 1}} {noun} per "
                       "class with both classes on each side"}

    def test_eemd_flags_reach_the_decomposition(self, corpus, capsys, tmp_path):
        _, manifest = corpus
        code, out, _ = run(
            capsys, "evaluate-within", "--manifest", str(manifest), "--stickout", "synth",
            "--method", "eemd", "--ensemble-size", "2", "--noise-fraction", "0.1",
            "--seed", "3", "--classifier", "logreg", "--realizations", "2",
            "--out", str(tmp_path),
        )
        assert code == 0
        params = EemdParams(ensemble_size=2, noise_std_fraction=0.1, master_seed=3)
        prepared = harness.prepare_from_manifest(load_manifest(manifest), "synth", "eemd",
                                                 eemd_params=params)
        expected = harness.run_within(ExperimentSpec("logistic", 2, 3), prepared)
        report = json.loads(Path(json.loads(out)["output"]).read_text())
        assert report == json.loads(json.dumps(expected.to_dict()))

    def test_classifier_spellings_give_one_report(self, corpus, capsys, tmp_path):
        _, manifest = corpus
        reports = []
        for name in ("logistic", "logreg"):
            code, out, _ = run(
                capsys, "evaluate-within", "--manifest", str(manifest),
                "--stickout", "synth", "--method", "wpt", "--level", "3",
                "--classifier", name, "--realizations", "2", "--out", str(tmp_path),
            )
            assert code == 0
            path = Path(json.loads(out)["output"])
            assert path.name == "within_synth_wpt_logistic.json"  # the report name
            reports.append(path.read_text())
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["spec"]["classifier"] == "logistic"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"within_synth_wpt_logistic.{ext}" for ext in ("csv", "json", "txt")]

    @pytest.mark.parametrize("name, report_name", [("logreg", "logistic"),
                                                    ("boost", "boosting")])
    def test_model_file_carries_the_report_name(self, capsys, tmp_path, name, report_name):
        features = tmp_path / "features.csv"
        features.write_text("x,label\n0.0,0\n0.1,0\n1.0,1\n1.1,1\n")
        code, out, _ = run(capsys, "train", "--features", str(features),
                           "--classifier", name, "--out", str(tmp_path))
        assert code == 0
        assert Path(json.loads(out)["output"]) == tmp_path / f"model_{report_name}.json"

    def test_train_reads_past_a_byte_order_mark(self, capsys, tmp_path):
        features = tmp_path / "features.csv"
        features.write_bytes(b"\xef\xbb\xbflabel,x\n0,0.0\n0,0.1\n1,1.0\n1,1.1\n")
        code, out, _ = run(capsys, "train", "--features", str(features),
                           "--classifier", "svm", "--out", str(tmp_path))
        assert code == 0
        assert json.loads(out)["train_accuracy"] == 1.0

    def test_unknown_classifier_is_a_usage_error(self, corpus, capsys, tmp_path):
        _, manifest = corpus
        with pytest.raises(SystemExit) as exc:
            main(["evaluate-within", "--manifest", str(manifest), "--stickout", "synth",
                  "--method", "wpt", "--classifier", "perceptron", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "invalid choice: 'perceptron'" in capsys.readouterr().err

    def test_report_reemission(self, corpus, capsys, tmp_path):
        tmp, manifest = corpus
        _, out, _ = run(
            capsys, "evaluate-within", "--manifest", str(manifest),
            "--stickout", "synth", "--method", "wpt", "--level", "3",
            "--classifier", "svm", "--realizations", "2", "--out", str(tmp_path),
        )
        json_path = json.loads(out)["output"]
        other = tmp_path / "again"
        code, out, _ = run(capsys, "report", "--input", json_path,
                           "--out", str(other))
        assert code == 0
        assert (other / (json.loads(out)["output"].split("/")[-1])).exists()

    # a cut whose midpoint rounds onto the upper value, and one whose
    # midpoint overflows, used to leave a tree child without rows
    @pytest.mark.parametrize("a, b", [(1 + 2**-52, 1 + 2**-51), (1.7e308, 1.79e308)])
    def test_train_forest_on_nearly_equal_values(self, capsys, tmp_path, a, b):
        features = tmp_path / "features.csv"
        rows = [f"{a!r},0" for _ in range(5)] + [f"{b!r},1" for _ in range(5)]
        features.write_text("x,label\n" + "\n".join(rows) + "\n")
        code, out, _ = run(
            capsys, "train", "--features", str(features), "--classifier", "forest",
            "--out", str(tmp_path),
        )
        assert code == 0
        assert json.loads(out)["train_accuracy"] == 1.0


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, corpus, capsys, tmp_path):
        tmp, manifest = corpus
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"level": 3, "stickout": "wrong", "no-such-flag": 1}))
        code, out, _ = run(
            capsys, "select", "--config", str(cfg), "--manifest", str(manifest),
            "--stickout", "synth", "--method", "wpt", "--out", str(tmp_path),
        )
        # level came from the config file, stickout from the explicit flag;
        # the key that names no flag is ignored
        assert code == 0
        stored = json.loads(open(json.loads(out)["output"]).read())
        assert stored["level"] == 3
        assert stored["stickout_id"] == "synth"

    def test_string_values_are_converted_like_flags(self, corpus, capsys, tmp_path):
        tmp, manifest = corpus
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"level": "3", "realizations": "2"}))
        code, out, _ = run(
            capsys, "evaluate-within", "--config", str(cfg),
            "--manifest", str(manifest), "--stickout", "synth", "--method", "wpt",
            "--classifier", "logreg", "--out", str(tmp_path),
        )
        assert code == 0
        report = json.loads(open(json.loads(out)["output"]).read())
        assert report["spec"]["level"] == 3
        assert report["n_realizations"] == 2

    @pytest.mark.parametrize("values", [
        {"level": "three"},
        {"realizations": 2.5},
        {"level": True},
        {"grouped-split": "yes"},
        {"method": "dwt"},
        {"out": None},
        {"out": True},
        {"out": {"a": 1}},
        {"stickout": None},
        {"stickout": ["synth", None]},
        {"out": [["x"]]},
    ])
    def test_bad_value_is_a_usage_error(self, corpus, capsys, tmp_path, values):
        tmp, manifest = corpus
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        with pytest.raises(SystemExit) as exc:
            main([
                "evaluate-within", "--config", str(cfg),
                "--manifest", str(manifest), "--stickout", "synth",
                "--method", "wpt", "--classifier", "logreg", "--out", str(tmp_path),
            ])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and next(iter(values)) in err

    @pytest.mark.parametrize("text, fragment", [
        ("{not json", "line 1: not valid JSON: Expecting property name"),
        ("[1, 2]", "expected a JSON object"),
    ])
    def test_config_not_a_json_object_is_a_usage_error(self, corpus, capsys, tmp_path,
                                                       text, fragment):
        _, manifest = corpus
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["select", "--config", str(cfg), "--manifest", str(manifest),
                  "--stickout", "synth", "--method", "wpt", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert f"--config {cfg}: {fragment}" in capsys.readouterr().err

    def test_byte_order_mark_accepted(self, corpus, capsys, tmp_path):
        _, manifest = corpus
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b"\xef\xbb\xbf" + json.dumps({"level": 3}).encode())
        code, out, _ = run(
            capsys, "select", "--config", str(cfg), "--manifest", str(manifest),
            "--stickout", "synth", "--method", "wpt", "--out", str(tmp_path),
        )
        assert code == 0
        assert json.loads(open(json.loads(out)["output"]).read())["level"] == 3

    def test_abbreviated_flag_beats_config(self, corpus, capsys, tmp_path):
        tmp, manifest = corpus
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"level": 3}))
        code, out, _ = run(
            capsys, "select", "--config", str(cfg), "--manifest", str(manifest),
            "--stickout", "synth", "--method", "wpt", "--lev", "2",
            "--out", str(tmp_path),
        )
        assert code == 0
        stored = json.loads(open(json.loads(out)["output"]).read())
        assert stored["level"] == 2

    def test_every_flag_from_the_file(self, corpus, capsys, tmp_path):
        # required flags too; the report has the bytes of the same command
        # given its flags on the command line
        _, manifest = corpus
        flags = {"manifest": str(manifest), "stickout": "synth", "method": "wpt",
                 "level": 3, "classifier": "logreg", "realizations": 2, "seed": 1}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**flags, "out": str(tmp_path / "file")}))
        assert run(capsys, "evaluate-within", "--config", str(cfg))[0] == 0
        argv = [token for key, value in flags.items() for token in (f"--{key}", str(value))]
        assert run(capsys, "evaluate-within", *argv, "--out", str(tmp_path / "flags"))[0] == 0
        for ext in ("json", "csv", "txt"):
            name = f"within_synth_wpt_logistic.{ext}"
            assert (tmp_path / "file" / name).read_bytes() == \
                (tmp_path / "flags" / name).read_bytes()

    def test_abbreviated_config_flag(self, corpus, capsys, tmp_path):
        # argparse's rule: a prefix names --config when no other flag of the
        # subcommand starts with it
        _, manifest = corpus
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"level": 3}))
        code, out, _ = run(
            capsys, "select", "--c", str(cfg), "--manifest", str(manifest),
            "--stickout", "synth", "--method", "wpt", "--out", str(tmp_path),
        )
        assert code == 0
        assert json.loads(open(json.loads(out)["output"]).read())["level"] == 3
        with pytest.raises(SystemExit) as exc:
            main(["train", "--c", str(cfg), "--features", "f.csv", "--classifier", "svm"])
        assert exc.value.code == 2
        assert "ambiguous option: --c could match --config, --classifier" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("with_config", [False, True])
    def test_arguments_are_parsed_once(self, corpus, capsys, tmp_path, monkeypatch,
                                       with_config):
        _, manifest = corpus
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"level": 3}))
        calls = []
        parse_args = argparse.ArgumentParser.parse_args

        def counted(self, *args, **kwargs):
            calls.append(args)
            return parse_args(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", counted)
        code, _, _ = run(
            capsys, "select", *(["--config", str(cfg)] if with_config else []),
            "--manifest", str(manifest), "--stickout", "synth", "--method", "wpt",
            "--out", str(tmp_path),
        )
        assert code == 0
        assert len(calls) == 1


def stickouts_manifest(tmp_path, stickouts, rates=None):
    """One manifest over several stickouts, each a small synthetic corpus in
    a folder of its own, with file ids of its own, sampled at FS unless
    `rates` maps the stickout to another rate."""
    records, configs = [], {}
    for seed, sid in enumerate(stickouts):
        folder = tmp_path / sid
        folder.mkdir()
        segments = make_segments(seed=seed, n_stable=4, n_chatter=4, fs=(rates or {}).get(sid, FS))
        doc = json.loads(write_corpus_files(folder, segments, sid).read_text())
        for rec in doc["records"]:
            rec["signal_path"] = f"{sid}/{rec['signal_path']}"
            rec["label_path"] = f"{sid}/{rec['label_path']}"
            rec["file_id"] = f"{sid}-{rec['file_id']}"
        records += doc["records"]
        configs.update(doc["configs"])
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"records": records, "configs": configs}))
    return path


class TestEvaluateTransfer:
    @pytest.fixture(scope="class")
    def manifest(self, tmp_path_factory):
        return stickouts_manifest(tmp_path_factory.mktemp("stickouts"), ["A", "B", "C", "D"])

    def expected(self, manifest, train, test, grouped_split=False):
        loaded = load_manifest(manifest)
        prepared = [harness.prepare_from_manifest(loaded, sid, "wpt", level=3)
                    for sid in train + test]
        spec = ExperimentSpec("logistic", 2, 1, grouped_split)
        if len(train) == 2:
            return run_transfer_combined(spec, prepared[:2], prepared[2:]).to_dict()
        return run_transfer(spec, *prepared).to_dict()

    @pytest.mark.parametrize("train, test", [(["A"], ["B"]), (["A", "B"], ["C", "D"])],
                             ids=["one-to-one", "two-to-two"])
    def test_report_equals_the_harness_run(self, manifest, capsys, tmp_path, train, test):
        code, out, _ = run(
            capsys, "evaluate-transfer", "--manifest", str(manifest),
            "--train-config", *train, "--test-config", *test, "--method", "wpt",
            "--level", "3", "--classifier", "logreg", "--realizations", "2", "--seed", "1",
            "--out", str(tmp_path),
        )
        assert code == 0
        path = Path(json.loads(out)["output"])
        tag = "-".join(train) + "_to_" + "-".join(test)
        assert path == tmp_path / f"transfer_{tag}_wpt_logistic.json"
        report = json.loads(path.read_text())
        assert report == json.loads(json.dumps(self.expected(manifest, train, test)))

    def test_config_list_value_and_switch(self, manifest, capsys, tmp_path):
        # the list feeds --train-config, which the command line's own flag
        # then overrides; the true switch turns on the grouped split
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train-config": ["C", "D"], "grouped-split": True}))
        code, out, _ = run(
            capsys, "evaluate-transfer", "--config", str(cfg), "--manifest", str(manifest),
            "--train-config", "A", "--test-config", "B", "--method", "wpt", "--level", "3",
            "--classifier", "logistic", "--realizations", "2", "--seed", "1",
            "--out", str(tmp_path),
        )
        assert code == 0
        report = json.loads(Path(json.loads(out)["output"]).read_text())
        expected = self.expected(manifest, ["A"], ["B"], grouped_split=True)
        assert report == json.loads(json.dumps(expected))

    def test_config_list_values_take_effect(self, manifest, capsys, tmp_path):
        # no --train-config or --test-config on the command line: the file's
        # lists supply both required flags
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train-config": ["A", "B"], "test_config": ["C", "D"]}))
        code, out, _ = run(
            capsys, "evaluate-transfer", "--config", str(cfg), "--manifest", str(manifest),
            "--method", "wpt", "--level", "3", "--classifier", "logistic",
            "--realizations", "2", "--seed", "1", "--out", str(tmp_path),
        )
        assert code == 0
        report = json.loads(Path(json.loads(out)["output"]).read_text())
        expected = self.expected(manifest, ["A", "B"], ["C", "D"])
        assert report == json.loads(json.dumps(expected))

    def test_stickouts_at_two_rates_exit_1(self, capsys, tmp_path):
        manifest = stickouts_manifest(tmp_path, ["A", "B"], rates={"B": 20000.0})
        code, out, err = run(
            capsys, "evaluate-transfer", "--manifest", str(manifest), "--train-config", "A",
            "--test-config", "B", "--method", "wpt", "--level", "3", "--classifier", "logreg",
            "--out", str(tmp_path),
        )
        assert code == 1 and out == ""
        record = error_record(err)
        assert record["error"] == "ValidationError"
        assert record["message"] == (
            "a run's stickouts must share one sample rate: stickout 'B' was prepared at "
            "20000.0 Hz, but stickout 'A' at 10000.0 Hz")

    def test_stickouts_at_two_rates_refused_before_reading(self, capsys, tmp_path,
                                                           monkeypatch):
        # each stickout's first record gives its rate, so no recording of
        # either stickout is loaded, let alone decomposed
        manifest = stickouts_manifest(tmp_path, ["A", "B"], rates={"B": 20000.0})
        calls = []
        monkeypatch.setattr(harness, "segments_from_manifest",
                            lambda *args: calls.append(args))
        code, out, err = run(
            capsys, "evaluate-transfer", "--manifest", str(manifest), "--train-config", "A",
            "--test-config", "B", "--method", "eemd", "--classifier", "logreg",
            "--out", str(tmp_path),
        )
        assert code == 1 and out == "" and calls == []
        assert error_record(err) == {
            "error": "ValidationError",
            "message": "a run's stickouts must share one sample rate: stickout 'B' was "
                       "prepared at 20000.0 Hz, but stickout 'A' at 10000.0 Hz"}

    def test_selection_error_names_the_third_stickout(self, capsys, tmp_path):
        manifest = stickouts_manifest(tmp_path, ["A", "B", "C", "D"])
        doc = json.loads(manifest.read_text())
        doc["configs"]["C"]["chatter_band_hz"] = [6000.0, 7000.0]
        manifest.write_text(json.dumps(doc))
        code, out, err = run(
            capsys, "evaluate-transfer", "--manifest", str(manifest), "--train-config", "A",
            "B", "--test-config", "C", "D", "--method", "wpt", "--level", "3",
            "--classifier", "logreg", "--out", str(tmp_path),
        )
        assert code == 1 and out == ""
        record = error_record(err)
        assert record["error"] == "DomainError"
        assert record["message"].startswith("stickout 'C': chatter band (6000.0, 7000.0)")

    def test_empty_config_list_is_a_usage_error(self, manifest, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train-config": []}))
        with pytest.raises(SystemExit) as exc:
            main(["evaluate-transfer", "--config", str(cfg), "--manifest", str(manifest),
                  "--train-config", "A", "--test-config", "B", "--method", "wpt",
                  "--classifier", "svm", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--train-config: expected at least one argument" in capsys.readouterr().err


def error_record(err):
    [line] = err.splitlines()
    return json.loads(line)


@pytest.mark.parametrize("command", ["preprocess", "decompose", "select", "features", "train"])
def test_out_with_trailing_separator_names_a_directory(corpus, capsys, tmp_path, command):
    _, manifest = corpus
    signal = tmp_path / "sig.csv"
    np.savetxt(signal, np.sin(np.arange(16000) * 0.3), delimiter=",")
    features = tmp_path / "features.csv"
    features.write_text("x,label\n0.0,0\n0.1,0\n1.0,1\n1.1,1\n")
    stickout = ["--manifest", str(manifest), "--stickout", "synth", "--method", "wpt",
                "--level", "3"]
    flags = {
        "preprocess": ["--input", str(signal), "--sample-rate", "160000",
                       "--target-rate", "10000"],
        "decompose": ["--input", str(signal), "--method", "wpt", "--level", "2"],
        "select": stickout,
        "features": stickout,
        "train": ["--features", str(features), "--classifier", "svm"],
    }[command]
    out_dir = tmp_path / "new" / "dir"
    code, out, _ = run(capsys, command, *flags, "--out", f"{out_dir}{os.sep}")
    assert code == 0
    path = Path(json.loads(out)["output"])
    assert path.parent == out_dir and path.is_file()


@pytest.fixture(scope="module")
def report_file(corpus, tmp_path_factory):
    """A report as evaluate-within writes it, with its CSV and text tables."""
    _, manifest = corpus
    out = tmp_path_factory.mktemp("report")
    assert main(["evaluate-within", "--manifest", str(manifest), "--stickout", "synth",
                 "--method", "wpt", "--level", "3", "--classifier", "svm",
                 "--realizations", "2", "--seed", "1", "--out", str(out)]) == 0
    return out / "within_synth_wpt_svm.json"


def _set(*path_and_value):
    """A mutation that sets the item at a key path of a report document."""
    *path, key, value = path_and_value

    def mutate(doc):
        for step in path:
            doc = doc[step]
        doc[key] = value
    return mutate


class TestReportInput:
    def test_writes_the_bytes_it_read(self, report_file, capsys, tmp_path):
        code, out, _ = run(capsys, "report", "--input", str(report_file),
                           "--out", str(tmp_path))
        assert code == 0
        assert Path(json.loads(out)["output"]) == tmp_path / report_file.name
        for ext in ("json", "csv", "txt"):
            assert (tmp_path / report_file.with_suffix(f".{ext}").name).read_bytes() == \
                report_file.with_suffix(f".{ext}").read_bytes()

    @pytest.mark.parametrize("out", [[], ["--out", "."], ["--out", "{dir}"]],
                             ids=["default", "dot", "absolute"])
    def test_refuses_to_write_over_its_input(self, report_file, capsys, tmp_path,
                                             monkeypatch, out):
        src = tmp_path / "rep.json"
        src.write_bytes(report_file.read_bytes())
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, "report", "--input", "rep.json",
                           *[flag.format(dir=tmp_path) for flag in out])
        assert code == 1
        record = error_record(err)
        assert record["error"] == "ValidationError"
        assert "rep.json" in record["message"] and "write over" in record["message"]
        assert [p.name for p in tmp_path.iterdir()] == ["rep.json"]
        assert src.read_bytes() == report_file.read_bytes()

    @pytest.mark.parametrize("mutate, key", [
        pytest.param(_set("n_realizations", "ten"), "'n_realizations'", id="realizations-ten"),
        pytest.param(_set("n_realizations", 0), "'n_realizations'", id="realizations-zero"),
        pytest.param(_set("n_realizations", 1), "'n_realizations'", id="realizations-one-short"),
        pytest.param(_set("n_realizations", 3), "'n_realizations'", id="realizations-one-over"),
        pytest.param(_set("n_realizations", 2.0), "'n_realizations'", id="realizations-float"),
        pytest.param(_set("feature_names", 0, "renamed"), "'feature_names'",
                     id="feature-renamed"),
        pytest.param(lambda d: d["feature_names"].pop(), "'feature_names'",
                     id="feature-dropped"),
        pytest.param(lambda d: d["per_k"].pop(0), "'per_k'", id="per-k-row-dropped"),
        pytest.param(lambda d: d["per_k"].reverse(), "'per_k'", id="per-k-reordered"),
        pytest.param(_set("per_k", 2, "mean_test", 0.125), "'per_k'",
                     id="per-k-changed"),
        pytest.param(_set("per_k", 0, "k", 1.0), "'per_k'", id="per-k-float-k"),
        pytest.param(lambda d: d.pop("per_k"), "'per_k'", id="per-k-missing"),
        pytest.param(_set("realizations", 0, "accuracies", 1, 2, float("nan")),
                     "'realizations[0].accuracies' row 2 must be finite", id="nan-accuracy"),
        pytest.param(_set("realizations", 0, "accuracies", 1, 2, 10**400),
                     "'realizations[0].accuracies' row 2 must be finite", id="huge-accuracy"),
        pytest.param(_set("realizations", 1, "accuracies", 4, 1, 1.5),
                     "'realizations[1].accuracies' row 5", id="accuracy-above-one"),
        pytest.param(_set("realizations", 1, "accuracies", 0, 0, 2),
                     "'realizations[1].accuracies' row 1", id="accuracy-row-k"),
        pytest.param(lambda d: d["realizations"][0]["accuracies"].pop(),
                     "'realizations[0].accuracies'", id="accuracy-row-dropped"),
        *[pytest.param(lambda d, key=key: d["spec"].pop(key), f"'spec.{key}'",
                       id=f"spec-{key}-missing") for key in ("method", "classifier", "mode")],
        pytest.param(_set("spec", "classifier", "perceptron"), "'spec.classifier'",
                     id="spec-classifier-unknown"),
        pytest.param(_set("note", "hand-edited"), "'note'", id="extra-key"),
    ])
    def test_altered_report_exit_1(self, report_file, capsys, tmp_path, mutate, key):
        doc = json.loads(report_file.read_text())
        mutate(doc)
        src = tmp_path / "report.json"
        src.write_text(json.dumps(doc))
        out = tmp_path / "out"
        code, _, err = run(capsys, "report", "--input", str(src), "--out", str(out))
        assert code == 1
        record = error_record(err)
        assert record["error"] == "ValidationError"
        assert key in record["message"] and str(src) in record["message"]
        assert not out.exists()


def test_readme_examples_parse(tmp_path, monkeypatch):
    """Every command of README's CLI example block parses; the config-only
    one reads the --config file README shows above it."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Command-line interface")[1]
    config = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("chatterdetect ")]
    assert len(commands) >= 10 and any("--config" in argv for argv in commands)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "study.json").write_text(config)
    parsed = [cli._parse_args(cli.build_parser(), argv[1:]) for argv in commands]
    assert [args.command for args in parsed] == [argv[1] for argv in commands]
    # the config-only command runs the same study as the evaluate-within example
    [from_file] = [args for args in parsed if args.config]
    [from_flags] = [args for args in parsed if args.command == "evaluate-within"
                    and not args.config]
    assert {**vars(from_file), "config": None} == vars(from_flags)


class TestErrorContract:
    @pytest.mark.parametrize("text, error, fragment", [
        ("{not json", "ParseError", "line 1"),
        ('{"records": [], "configs": {"x": {}}}', "ValidationError", "'x'"),
        ('{"records": [], "configs": {"x": {"chatter_band_hz": [900]}}}',
         "ValidationError", "'x'"),
        ("3", "ValidationError", "manifest must be"),
        ('[{"signal_path": "s.csv", "label_path": "l.csv", "stickout_id": "x",'
         ' "sample_rate_hz": "fast"}]', "ValidationError", "record 0"),
        *[('[{"signal_path": "s.csv", "label_path": "l.csv", "stickout_id": "x",'
           f' "sample_rate_hz": {rate}}}]', "ValidationError", "record 0: sample_rate_hz")
          for rate in ("NaN", "Infinity", "0", "-5", "true")],
        ('{"records": [], "configs": {"x": {"chatter_band_hz": [900, Infinity]}}}',
         "ValidationError", "stickout 'x': chatter band"),
        # integers beyond the float range
        pytest.param('[{"signal_path": "s.csv", "label_path": "l.csv", "stickout_id": "x",'
                     f' "sample_rate_hz": 1{"0" * 400}}}]', "ValidationError",
                     "record 0: sample_rate_hz must be finite", id="huge-sample-rate"),
        pytest.param(f'{{"configs": {{"x": {{"chatter_band_hz": [900, 1{"0" * 400}]}}}}}}',
                     "ValidationError", "stickout 'x': chatter band edge must be finite",
                     id="huge-band-edge"),
        ('{"records": {}}', "ValidationError", "records must be a list and configs an object"),
        ("[3]", "ValidationError", "manifest record 0 is not an object"),
    ])
    def test_bad_manifest_exit_1(self, tmp_path, capsys, text, error, fragment):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(text)
        code, _, err = run(
            capsys, "select", "--manifest", str(manifest), "--stickout", "x",
            "--method", "wpt",
        )
        assert code == 1
        record = error_record(err)
        assert record["error"] == error
        assert fragment in record["message"]
        assert str(manifest) in record["message"]

    @pytest.mark.parametrize("flag, rate", [
        ("--target-rate", "nan"), ("--target-rate", "inf"), ("--target-rate", "0"),
        ("--target-rate", "-5"), ("--sample-rate", "nan"), ("--sample-rate", "inf"),
    ])
    def test_non_finite_or_non_positive_rate_exit_1(self, tmp_path, capsys, flag, rate):
        src = tmp_path / "raw.csv"
        np.savetxt(src, np.arange(320.0), delimiter=",")
        rates = {"--sample-rate": "160000", "--target-rate": "10000", flag: rate}
        code, _, err = run(
            capsys, "preprocess", "--input", str(src), *[t for kv in rates.items() for t in kv],
            "--out", str(tmp_path),
        )
        assert code == 1
        record = error_record(err)
        assert record["error"] == "DomainError"
        assert "must be finite and positive" in record["message"]

    @pytest.mark.parametrize("name, text, fragment", [
        # a 0.5 ms chatter interval holds 5 samples, fewer than a level-4 tree needs
        ("labels_03.csv", "start_s,end_s,label\n0.0,0.2,chatter\n0.2,0.2005,chatter\n",
         "file 'file03' interval 1: series of length 5 too short for level 4"),
        ("signal_03.csv", "0.0\n" * 3000,
         "file 'file03' interval 0: energy ratios undefined for the all-zero signal"),
    ], ids=["short-interval", "all-zero-signal"])
    def test_wpt_preparation_error_names_the_interval(self, capsys, tmp_path, name, text,
                                                      fragment):
        manifest = write_corpus_files(tmp_path, make_segments(seed=0, n_stable=2, n_chatter=2))
        (tmp_path / name).write_text(text)
        code, _, err = run(
            capsys, "select", "--manifest", str(manifest), "--stickout", "synth",
            "--method", "wpt", "--level", "4", "--out", str(tmp_path),
        )
        assert code == 1
        record = error_record(err)
        assert record["error"] == "DomainError"
        assert record["message"] == fragment

    @pytest.mark.parametrize("level", ["-1", "0", "5"])
    def test_bad_level_exit_1(self, corpus, capsys, tmp_path, level):
        _, manifest = corpus
        code, _, err = run(
            capsys, "select", "--manifest", str(manifest), "--stickout", "synth",
            "--method", "wpt", "--level", level, "--out", str(tmp_path),
        )
        assert code == 1
        record = error_record(err)
        assert record["error"] == "DomainError"
        assert f"level must lie in 1..4, got {level}" in record["message"]

    @pytest.mark.parametrize("window_len", ["2", "3"])
    def test_short_eemd_window_exit_1(self, corpus, capsys, tmp_path, window_len):
        _, manifest = corpus
        code, _, err = run(
            capsys, "select", "--manifest", str(manifest), "--stickout", "synth",
            "--method", "eemd", "--window-len", window_len, "--out", str(tmp_path),
        )
        assert code == 1
        record = error_record(err)
        assert record["error"] == "DomainError"
        assert record["message"] == f"window_len must be at least 4 for EEMD, got {window_len}"

    def test_train_without_label_column_exit_1(self, tmp_path, capsys):
        features = tmp_path / "features.csv"
        features.write_text("a,b\n1.0,2.0\n3.0,4.0\n")
        code, _, err = run(
            capsys, "train", "--features", str(features), "--classifier", "svm",
            "--out", str(tmp_path),
        )
        assert code == 1
        record = error_record(err)
        assert record["error"] == "ValidationError"
        assert "label" in record["message"] and str(features) in record["message"]

    def test_train_without_feature_columns_exit_1(self, tmp_path, capsys):
        features = tmp_path / "features.csv"
        features.write_text("label\n0\n1\n")
        code, _, err = run(
            capsys, "train", "--features", str(features), "--classifier", "svm",
            "--out", str(tmp_path),
        )
        assert code == 1
        record = error_record(err)
        assert record["error"] == "ValidationError"
        assert "feature column" in record["message"] and str(features) in record["message"]

    @pytest.mark.parametrize("text, fragment", [("", "Empty input file"),
                                                ("a,b,label\n1,2,0\n3,4\n5,6,1\n", "Line #3")])
    def test_train_empty_or_ragged_features_exit_1(self, tmp_path, capsys, text, fragment):
        features = tmp_path / "features.csv"
        features.write_text(text)
        code, _, err = run(
            capsys, "train", "--features", str(features), "--classifier", "svm",
            "--out", str(tmp_path),
        )
        assert code == 1
        record = error_record(err)
        assert record["error"] == "ValidationError"
        assert fragment in record["message"] and str(features) in record["message"]

    @pytest.mark.parametrize("label", ["1.5", "2", "-1", "nan"])
    def test_train_label_not_zero_or_one_exit_1(self, tmp_path, capsys, label):
        features = tmp_path / "features.csv"
        features.write_text(f"x,label\n0.0,0\n1.0,1\n2.0,{label}\n")
        code, _, err = run(
            capsys, "train", "--features", str(features), "--classifier", "svm",
            "--out", str(tmp_path),
        )
        assert code == 1
        record = error_record(err)
        assert record["error"] == "ValidationError"
        assert "row 3" in record["message"] and str(features) in record["message"]
        assert not list(tmp_path.glob("model_*.json"))

    @pytest.mark.parametrize("cell", ["x", "nan", "inf"])
    def test_train_feature_not_finite_exit_1(self, tmp_path, capsys, cell):
        features = tmp_path / "features.csv"
        features.write_text(f"a,b,label\n1,2,0\n3,{cell},1\n5,6,1\n")
        code, _, err = run(
            capsys, "train", "--features", str(features), "--classifier", "svm",
            "--out", str(tmp_path),
        )
        assert code == 1
        record = error_record(err)
        assert record["error"] == "ValidationError"
        assert record["message"] == (
            f"{features}: data row 2 column 'b' is not a finite number")
        assert not list(tmp_path.glob("model_*.json"))

    @pytest.mark.parametrize("train, test", [(["A", "B", "C"], ["D"]),
                                             (["A"], ["C", "D"])])
    def test_transfer_config_counts_exit_1(self, corpus, capsys, tmp_path,
                                           train, test):
        _, manifest = corpus
        code, _, err = run(
            capsys, "evaluate-transfer", "--manifest", str(manifest),
            "--train-config", *train, "--test-config", *test,
            "--method", "wpt", "--classifier", "svm", "--out", str(tmp_path),
        )
        assert code == 1
        record = error_record(err)
        assert record["error"] == "ValidationError"
        assert "one train and one test" in record["message"]

    @pytest.mark.parametrize("train, test, fragment", [
        (["A", "B", "C"], ["D"], "one train and one test"),
        (["A"], ["C", "D"], "one train and one test"),
        (["A", "B"], ["C"], "two train and two test"),
        (["A"], ["A"], "must be distinct"),
        (["A", "B"], ["B", "C"], "must be distinct"),
    ])
    def test_transfer_configs_checked_before_the_manifest(self, capsys, tmp_path,
                                                         train, test, fragment):
        code, out, err = run(
            capsys, "evaluate-transfer", "--manifest", str(tmp_path / "missing.json"),
            "--train-config", *train, "--test-config", *test,
            "--method", "wpt", "--classifier", "svm", "--out", str(tmp_path),
        )
        assert code == 1 and out == ""
        record = error_record(err)
        assert record["error"] == "ValidationError"
        assert fragment in record["message"]

    def test_duplicate_file_id_exit_1(self, tmp_path, capsys):
        manifest = write_corpus_files(tmp_path, make_segments(seed=0, n_stable=2, n_chatter=2))
        doc = json.loads(manifest.read_text())
        doc["records"][3]["file_id"] = doc["records"][1]["file_id"]
        manifest.write_text(json.dumps(doc))
        code, _, err = run(
            capsys, "select", "--manifest", str(manifest), "--stickout", "synth",
            "--method", "wpt", "--out", str(tmp_path),
        )
        assert code == 1
        record = error_record(err)
        assert record["error"] == "ValidationError"
        assert record["message"] == (
            f"{manifest}: manifest records 1 and 3 share file_id 'file01'")

    @pytest.mark.parametrize("command", ["decompose", "train", "evaluate-within"])
    def test_negative_seed_exit_1(self, corpus, capsys, tmp_path, command):
        _, manifest = corpus
        signal = tmp_path / "sig.csv"
        np.savetxt(signal, np.sin(np.arange(600) * 0.3), delimiter=",")
        features = tmp_path / "features.csv"
        features.write_text("x,label\n0.0,0\n1.0,1\n")
        argv = {
            "decompose": ["--input", str(signal), "--method", "eemd", "--ensemble-size", "2"],
            "train": ["--features", str(features), "--classifier", "forest"],
            "evaluate-within": ["--manifest", str(manifest), "--stickout", "synth",
                                "--method", "wpt", "--level", "3", "--classifier", "logreg",
                                "--realizations", "1"],
        }[command]
        out = tmp_path / "out"
        out.mkdir()
        code, _, err = run(capsys, command, *argv, "--seed", "-1", "--out", str(out))
        assert code == 1
        record = error_record(err)
        assert record["error"] == "ValidationError"
        assert "--seed must be non-negative, got -1" in record["message"]
        assert not any(out.iterdir())

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_non_positive_realizations_exit_1(self, corpus, capsys, tmp_path, count):
        _, manifest = corpus
        code, _, err = run(
            capsys, "evaluate-within", "--manifest", str(manifest), "--stickout", "synth",
            "--method", "wpt", "--level", "3", "--classifier", "logreg",
            "--realizations", count, "--out", str(tmp_path),
        )
        assert code == 1
        record = error_record(err)
        assert record["error"] == "ValidationError"
        assert "n_realizations" in record["message"]
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("data, error, fragment", [
        (b'{\n  "spec": {},\n  "per_k": [\n', "ParseError", "line 4"),
        (b'{"spec": "\xff"}', "ParseError", "UTF-8"),
        (b"{}", "ValidationError", "no 'spec' key"),
        (b"[]", "ValidationError", "object"),
        (json.dumps({
            "spec": {"method": "wpt", "classifier": "svm", "mode": "within"},
            "feature_names": ["a"], "per_k": [{"k": 1}], "realizations": [],
            "n_realizations": 1,
        }).encode(), "ValidationError", "'realizations' holds []"),
        (json.dumps({
            "per_k": [{"k": 1, "mean_test": None, "std_test": 0.0, "mean_train": 1.0,
                       "std_train": 0.0}],
            "spec": {"method": "wpt", "classifier": "svm", "mode": "within"},
            "feature_names": ["a"], "realizations": [], "n_realizations": 1,
        }).encode(), "ValidationError", "'realizations' holds []"),
        (b'{"spec": ["wpt"], "feature_names": [], "per_k": [], "realizations": [], '
         b'"n_realizations": 1}', "ValidationError", "'spec'"),
        (b'{"per_k": [3], "spec": {}, "feature_names": [], "realizations": [], '
         b'"n_realizations": 1}', "ValidationError", "'realizations' holds []"),
        *[pytest.param(
            b'{"spec": {"method": "wpt", "classifier": "svm", "mode": "within"}, '
            b'"feature_names": ["a"], "realizations": [], "n_realizations": 1, '
            b'"per_k": [{"k": 1, "mean_test": ' + value + b', "std_test": 0.0, '
            b'"mean_train": 1.0, "std_train": 0.0}]}', error, fragment, id=name)
          for name, value, error, fragment in [
              ("huge-per-k", b"1" + b"0" * 400, "ValidationError", "'realizations' holds []"),
              ("nan-per-k", b"NaN", "ValidationError", "'realizations' holds []"),
              ("per-k-past-the-digit-limit", b"1" * 5000, "ParseError", "not valid JSON"),
          ]],
    ])
    def test_bad_report_input_exit_1(self, tmp_path, capsys, data, error, fragment):
        src = tmp_path / "report.json"
        src.write_bytes(data)
        out = tmp_path / "out"
        code, _, err = run(capsys, "report", "--input", str(src), "--out", str(out))
        assert code == 1
        record = error_record(err)
        assert record["error"] == error
        assert fragment in record["message"] and str(src) in record["message"]
        assert not out.exists()

    def test_other_fault_exit_3(self, monkeypatch, capsys, tmp_path):
        def fault(args):
            raise RuntimeError("an internal fault")

        monkeypatch.setitem(cli._COMMANDS, "report", fault)
        code, out, err = run(capsys, "report", "--input", str(tmp_path / "r.json"))
        assert (code, out) == (3, "")
        record = error_record(err)
        assert (record["error"], record["message"]) == ("RuntimeError", "an internal fault")
        assert record["traceback"].endswith("RuntimeError: an internal fault\n")

    def test_non_utf8_signal_exit_1(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_bytes(b"1.0\n\xff\xfe\n")
        code, _, err = run(
            capsys, "preprocess", "--input", str(src), "--sample-rate", "160000",
            "--target-rate", "10000", "--cutoff", "4500", "--out", str(tmp_path),
        )
        assert code == 1
        record = error_record(err)
        assert record["error"] == "ParseError"
        assert "line 2" in record["message"] and str(src) in record["message"]
        assert "UTF-8" in record["message"]

    def test_non_utf8_labels_exit_1(self, tmp_path, capsys):
        [segment] = make_segments(seed=0, n_stable=1, n_chatter=0)
        manifest = write_corpus_files(tmp_path, [segment])
        labels = tmp_path / "labels_00.csv"
        labels.write_bytes(b"start_s,end_s,label\n0.0,0.1,stable\xe9\n")
        code, _, err = run(
            capsys, "select", "--manifest", str(manifest), "--stickout", "synth",
            "--method", "wpt", "--out", str(tmp_path),
        )
        assert code == 1
        record = error_record(err)
        assert record["error"] == "ParseError"
        assert "line 2" in record["message"] and str(labels) in record["message"]

    def test_mixed_sample_rates_exit_1(self, tmp_path, capsys):
        # every label covers 0.1 s, so each recording is valid at either rate
        manifest = write_corpus_files(tmp_path, make_segments(seed=0, n_stable=4, n_chatter=4))
        doc = json.loads(manifest.read_text())
        for i, rec in enumerate(doc["records"]):
            (tmp_path / rec["label_path"]).write_text(
                f"0.0,0.1,{'stable' if i < 4 else 'chatter'}\n")
            rec["sample_rate_hz"] = 20000.0 if i % 2 else FS
        manifest.write_text(json.dumps(doc))
        code, out, err = run(
            capsys, "evaluate-within", "--manifest", str(manifest), "--stickout", "synth",
            "--method", "wpt", "--level", "3", "--classifier", "logreg", "--out", str(tmp_path),
        )
        assert code == 1 and out == ""
        record = error_record(err)
        assert record["error"] == "ValidationError"
        assert "'file01'" in record["message"] and "20000.0 Hz" in record["message"]
        assert "10000.0 Hz" in record["message"]

    def test_interval_start_after_end_names_label_file(self, tmp_path, capsys):
        manifest = write_corpus_files(tmp_path, make_segments(seed=0, n_stable=1, n_chatter=1))
        labels = tmp_path / "labels_00.csv"
        labels.write_text("0.5,0.1,stable\n")
        code, _, err = run(
            capsys, "select", "--manifest", str(manifest), "--stickout", "synth",
            "--method", "wpt", "--out", str(tmp_path),
        )
        assert code == 1
        assert error_record(err) == {
            "error": "ValidationError",
            "message": f"{labels}: line 1: interval start 0.5 must precede end 0.1"}

    def test_built_in_stickout_without_records_exit_1(self, corpus, capsys, tmp_path):
        # '2' has a built-in chatter band, so only the missing data is wrong
        _, manifest = corpus
        code, _, err = run(
            capsys, "select", "--manifest", str(manifest), "--stickout", "2",
            "--method", "wpt", "--out", str(tmp_path),
        )
        assert code == 1
        assert error_record(err) == {"error": "ValidationError",
                                     "message": "manifest holds no data for stickout '2'"}

    def test_interval_outside_recording_names_label_file(self, tmp_path, capsys):
        [segment] = make_segments(seed=0, n_stable=1, n_chatter=0)  # 0.3 s
        manifest = write_corpus_files(tmp_path, [segment])
        labels = tmp_path / "labels_00.csv"
        labels.write_text("0.0,9.0,chatter\n")
        code, _, err = run(
            capsys, "select", "--manifest", str(manifest), "--stickout", "synth",
            "--method", "wpt", "--out", str(tmp_path),
        )
        assert code == 1
        record = error_record(err)
        assert record["error"] == "ValidationError"
        assert record["message"].startswith(f"{labels}: interval [0.0, 9.0]s outside")
