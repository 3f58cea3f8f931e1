import json
from pathlib import Path

import numpy as np
import pytest

from chatterdetect import design_lowpass, filter_and_downsample, load_timeseries
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


class TestDecompose:
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
        assert "usage:" in capsys.readouterr().err

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


def error_record(err):
    [line] = err.splitlines()
    return json.loads(line)


class TestErrorContract:
    @pytest.mark.parametrize("text, error, fragment", [
        ("{not json", "ParseError", "line 1"),
        ('{"records": [], "configs": {"x": {}}}', "ValidationError", "'x'"),
        ('{"records": [], "configs": {"x": {"chatter_band_hz": [900]}}}',
         "ValidationError", "'x'"),
        ("3", "ValidationError", "manifest must be"),
        ('[{"signal_path": "s.csv", "label_path": "l.csv", "stickout_id": "x",'
         ' "sample_rate_hz": "fast"}]', "ValidationError", "record 0"),
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
        }).encode(), "ValidationError", "no 'mean_test' key"),
        (json.dumps({
            "per_k": [{"k": 1, "mean_test": None, "std_test": 0.0, "mean_train": 1.0,
                       "std_train": 0.0}],
            "spec": {"method": "wpt", "classifier": "svm", "mode": "within"},
            "feature_names": ["a"], "realizations": [], "n_realizations": 1,
        }).encode(), "ValidationError", "'per_k[0].mean_test'"),
        (b'{"spec": ["wpt"], "feature_names": [], "per_k": [], "realizations": [], '
         b'"n_realizations": 1}', "ValidationError", "'spec'"),
        (b'{"per_k": [3], "spec": {}, "feature_names": [], "realizations": [], '
         b'"n_realizations": 1}', "ValidationError", "'per_k[0]'"),
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
