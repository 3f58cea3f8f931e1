import json
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import chatterdetect
from chatterdetect import (
    CuttingConfig,
    DomainError,
    FilterCascade,
    Label,
    LabelInterval,
    ParseError,
    TimeSeries,
    ValidationError,
    cut_segments,
    design_lowpass,
    filter_and_downsample,
    load_labels,
    load_manifest,
    load_timeseries,
    window_segments,
)
from chatterdetect import ingest
from chatterdetect.ingest import ManifestRecord, _scan_timeseries


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadTimeseries:
    def test_two_column(self, tmp_path):
        ts = load_timeseries(write(tmp_path, "0.0,0.5\n0.0001,0.7\n"), 10000)
        assert np.allclose(ts.samples, [0.5, 0.7])
        assert ts.sample_rate_hz == 10000

    def test_single_column(self, tmp_path):
        ts = load_timeseries(write(tmp_path, "1.0\n2.0\n3.0\n"), 10000)
        assert ts.samples.size == 3

    def test_wrong_delta_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            load_timeseries(write(tmp_path, "0.0,0.5\n0.0003,0.7\n"), 10000)

    def test_non_monotonic_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            load_timeseries(write(tmp_path, "0.0002,0.5\n0.0001,0.7\n"), 10000)

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            load_timeseries(write(tmp_path, ""), 10000)

    def test_malformed_row_has_line_number(self, tmp_path):
        with pytest.raises(ParseError, match="line 2"):
            load_timeseries(write(tmp_path, "1.0\nnope\n"), 10000)

    @pytest.mark.parametrize("text, line", [
        ("1.0\nnope\n", 2),  # a bad value
        ("0.0,0.5\ninf,0.7\n", 2),  # a non-finite time
        ("1.0\n2.0,3.0,4.0\n", 2),  # too many columns
        ("0.0,0.5\n0.7\n", 2),  # a changed column count
    ])
    def test_parse_error_names_the_file(self, tmp_path, text, line):
        path = write(tmp_path, text)
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line {line}: ") as info:
            load_timeseries(path, 10000)
        assert info.value.path == path and info.value.line_number == line

    def test_header_skipped(self, tmp_path):
        ts = load_timeseries(write(tmp_path, "time_s,acc\n0.0,1.0\n0.001,2.0\n"), 1000)
        assert ts.samples.size == 2

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_rejected_with_line(self, tmp_path, token):
        path = write(tmp_path, f"1.0\n2.0\n{token}\n3.0\n")
        with pytest.raises(ParseError, match="line 3.*non-finite"):
            load_timeseries(path, 10000)

    def test_non_finite_time_rejected(self, tmp_path):
        with pytest.raises(ParseError, match="line 2"):
            load_timeseries(write(tmp_path, "0.0,0.5\ninf,0.7\n"), 10000)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                    max_size=50))
    def test_csv_round_trip(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("round_trip") / "data.csv"
        path.write_text("".join(f"{v!r}\n" for v in values))
        assert load_timeseries(path, 10000).samples.tolist() == values


FS = 10000.0
QUIRKY = st.sampled_from(
    ["nan", "inf", "-inf", "1e999", "abc", "", "1_000", "-2_5.0_1", "0x10", "1,5"]
)
PAD = st.sampled_from(["", " ", "\t", "  "])


@st.composite
def csv_texts(draw):
    """CSV text close to a time series: 1-3 columns (with 2 or more, the first
    is uniformly spaced at FS), padded tokens, stray commas, quirky tokens,
    blank or whitespace-only lines, an optional header, LF or CRLF."""
    n_cols = draw(st.integers(1, 3))
    lines = []
    for i in range(draw(st.integers(0, 6))):
        cells = [repr(i / FS)] if n_cols > 1 else []
        while len(cells) < n_cols:
            cells.append(repr(draw(st.floats(allow_nan=False, allow_infinity=False))))
        quirk = draw(st.integers(0, 19))  # most rows stay well-formed
        if quirk == 0:
            cells[draw(st.integers(0, n_cols - 1))] = draw(QUIRKY)
        line = ",".join(draw(PAD) + c + draw(PAD) for c in cells)
        lines.append("," * (quirk == 1) + line + ", " * (quirk == 2))
        if quirk == 3:
            lines.append(draw(st.sampled_from(["", " ", "\t ", " , "])))
    if draw(st.booleans()):
        lines.insert(0, draw(st.sampled_from(["time_s,acc", "acc", ",x", " t , a ", "1_0,a"])))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


def outcome(loader, path):
    """A loader's samples and start time as bits, or its error type and message;
    a warning counts as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            ts = loader(path, FS)
        except Exception as exc:  # compared with the other loader's outcome
            return type(exc), str(exc)
    return ts.samples.tobytes(), ts.samples.dtype, np.float64(ts.start_time_s).tobytes()


class TestFastReadMatchesScan:
    """load_timeseries parses with numpy's reader and falls back to the line
    scan; both must give the same bits or the same error."""

    @settings(max_examples=300, deadline=None)
    @given(csv_texts())
    @example(",1.0\n2.0\n")
    @example("time_s,acc\n")
    @example("1.0\n \n2.0\n")
    @example("0.0,1.0\r\n0.0001,1_0\r\n")
    @example("\ufeff1.0\n2.0\n3.0\n")
    @example("\ufefftime_s,acc\n0.0,1.0\n")
    @example("\ufeff1_0\n2.0\n")
    def test_same_result(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("diff") / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        assert outcome(load_timeseries, path) == outcome(_scan_timeseries, path)

    # spreadsheet "CSV UTF-8" exports start with a byte-order mark
    @pytest.mark.parametrize("text", ["\ufeff1.0\n2.0\n3.0\n",
                                      "\ufeff0.0,1.0\n0.0001,2.0\n0.0002,3.0\n"])
    @pytest.mark.parametrize("loader", [load_timeseries, _scan_timeseries])
    def test_byte_order_mark_is_not_data(self, tmp_path, text, loader):
        ts = loader(write(tmp_path, text), FS)
        assert (ts.samples.tolist(), ts.start_time_s) == ([1.0, 2.0, 3.0], 0.0)

    def test_leading_comma_is_not_a_header(self, tmp_path):
        ts = load_timeseries(write(tmp_path, ",1.0\n2.0\n"), FS)
        assert ts.samples.tolist() == [1.0, 2.0]

    def test_header_only_is_empty_without_warning(self, tmp_path):
        path = write(tmp_path, "time_s,acc\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="empty time-series file"):
                load_timeseries(path, FS)

    @pytest.mark.parametrize("text, expected", [
        ("1_000\n2\n", [1000.0, 2.0]),
        ("1.0\n   \n2.0\n", [1.0, 2.0]),
        ("1.0,\n,2.0\n", [1.0, 2.0]),
    ])
    def test_quirks_the_scan_accepts(self, tmp_path, text, expected):
        assert load_timeseries(write(tmp_path, text), FS).samples.tolist() == expected


@pytest.mark.parametrize("data, line", [
    (b"1.0\n\xff\xfe\n", 2),
    (b"1.0\r\n2.0\r\n3.0\xe9\r\n", 3),
    (b"1.0\r2.0\r\xc3\n", 3),
    (b"\xff", 1),
    (b"\xef\xbb\xbf1.0\n\xff\n", 2),  # after a byte-order mark
])
@pytest.mark.parametrize("loader", [lambda p: load_timeseries(p, FS), load_labels])
def test_non_utf8_is_parse_error(tmp_path, data, line, loader):
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    with pytest.raises(ParseError, match=f"line {line}: .*not valid UTF-8") as info:
        loader(path)
    assert str(path) in str(info.value)
    assert info.value.line_number == line


LABEL_ALIASES = {
    "stable": Label.STABLE,
    "no chatter": Label.STABLE,
    "mild": Label.MILD,
    "intermediate": Label.MILD,
    "mild chatter": Label.MILD,
    "chatter": Label.CHATTER,
    "unknown": Label.UNKNOWN,
}


@st.composite
def label_rows(draw):
    """(start, end, label text, expected Label) with the label in mixed case."""
    start = draw(st.floats(-1e6, 1e6, allow_nan=False))
    end = start + draw(st.floats(1e-3, 1e3))
    alias = draw(st.sampled_from(sorted(LABEL_ALIASES)))
    upper = draw(st.lists(st.booleans(), min_size=len(alias), max_size=len(alias)))
    text = "".join(c.upper() if u else c for c, u in zip(alias, upper))
    return start, end, draw(PAD) + text + draw(PAD), LABEL_ALIASES[alias]


class TestLoadLabels:
    @pytest.mark.parametrize("row", ["0,1", "0,1,stable,extra", "0,x,stable", "nan,1,stable"])
    def test_parse_error_names_the_file(self, tmp_path, row):
        path = write(tmp_path, f"start_s,end_s,label\n{row}\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 2: "):
            load_labels(path)

    def test_malformed_first_row_is_not_a_header(self, tmp_path):
        # the header rule of load_timeseries: a first non-empty token that
        # is a number makes line 1 data, so its empty start_s is an error
        path = write(tmp_path, ",1.0,stable\n1,2,chatter\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 1: "):
            load_labels(path)

    def test_basic(self, tmp_path):
        path = write(tmp_path, "start_s,end_s,label\n0,1,stable\n1,2,CHATTER\n2,3,Mild\n")
        labels = load_labels(path)
        assert [iv.label for iv in labels] == [Label.STABLE, Label.CHATTER, Label.MILD]

    def test_byte_order_mark_is_not_data(self, tmp_path):
        labels = load_labels(write(tmp_path, "\ufeff0,1,stable\n1,2,chatter\n"))
        assert [(iv.start_s, iv.label) for iv in labels] == [(0.0, Label.STABLE),
                                                               (1.0, Label.CHATTER)]

    def test_unknown_label_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            load_labels(write(tmp_path, "0,1,weird\n"))

    def test_non_finite_bound_rejected_with_line(self, tmp_path):
        with pytest.raises(ParseError, match="line 2.*end_s"):
            load_labels(write(tmp_path, "0,1,stable\n1,nan,chatter\n"))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(label_rows(), max_size=8), st.booleans())
    def test_round_trip(self, tmp_path_factory, rows, header):
        lines = ["start_s,end_s,label"] if header else []
        lines += [f"{s!r},{e!r},{text}" for s, e, text, _ in rows]
        path = tmp_path_factory.mktemp("labels") / "labels.csv"
        path.write_text("".join(line + "\n" for line in lines))
        got = [(iv.start_s, iv.end_s, iv.label) for iv in load_labels(path)]
        assert got == [(s, e, label) for s, e, _, label in rows]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(label_rows(), min_size=1, max_size=6), st.data())
    def test_bad_row_names_its_line(self, tmp_path_factory, rows, data):
        lines = ["start_s,end_s,label"] + [f"{s!r},{e!r},{t}" for s, e, t, _ in rows]
        at = data.draw(st.integers(1, len(lines)))
        s, e, text, _ = rows[0]
        bad, error, message = data.draw(st.sampled_from([
            (f"{s!r},{e!r}", ParseError, "expected 3 columns, got 2"),
            (f"{s!r},{e!r},{text},extra", ParseError, "expected 3 columns, got 4"),
            (f"{s!r},{e!r},weird", ValidationError, "unknown label 'weird'"),
        ]))
        lines.insert(at, bad)
        path = tmp_path_factory.mktemp("labels") / "labels.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(error, match=f"line {at + 1}: {message}"):
            load_labels(path)


class TestDesignLowpass:
    def test_minus_3db_point(self):
        filt = design_lowpass(2, 100, 1000)
        assert filt.n_sections == 1
        assert abs(abs(filt.response(0.0, 1000)[0]) - 1) < 1e-9
        assert abs(abs(filt.response(100.0, 1000)[0]) - 1 / np.sqrt(2)) < 1e-6

    def test_order_100_cascade(self):
        filt = design_lowpass(100, 10000, 160000)
        assert filt.n_sections == 50
        assert abs(abs(filt.response(0.0, 160000)[0]) - 1) < 1e-9
        # analytic Butterworth magnitude at 2*fc is 1/sqrt(1+2^200)
        assert abs(filt.response(20000.0, 160000)[0]) < 1e-12

    def test_cutoff_above_nyquist_rejected(self):
        with pytest.raises(DomainError):
            design_lowpass(2, 600, 1000)

    def test_odd_order_rejected(self):
        with pytest.raises(DomainError):
            design_lowpass(3, 100, 1000)

    def test_passband_tone_rms_preserved(self):
        # order-100 design is flat far below cutoff
        fs, fc = 160000, 10000
        t = np.arange(int(fs * 0.2)) / fs
        tone = np.sin(2 * np.pi * (fc / 8) * t)
        out = design_lowpass(100, fc, fs).apply(tone)
        steady = out[t.size // 4 :]
        rms_in = np.sqrt(np.mean(tone[t.size // 4 :] ** 2))
        rms_out = np.sqrt(np.mean(steady**2))
        assert abs(rms_out - rms_in) / rms_in < 1e-3

    @pytest.mark.parametrize("order, cutoff, rate", [
        (2000, 4500, 160000),  # non-finite sections
        (400, 4500, 160000),   # DC gain 0
        (300, 4500, 160000),   # DC gain 1.33
        (100, 20, 160000),     # DC gain 0
        (56, 87176, 174353),   # the analog prototype's gain overflows
        (2, 5e-324, 4),        # the normalized cutoff underflows to 0
    ])
    def test_degenerate_design_rejected(self, order, cutoff, rate):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="numerically degenerate") as info:
                design_lowpass(order, cutoff, rate)
        for fragment in (f"order-{order}", f"{cutoff:g} Hz", f"{rate:g} Hz"):
            assert fragment in str(info.value)

    @settings(deadline=None)
    @given(st.data())
    def test_design_is_sound_or_rejected(self, data):
        order = data.draw(st.integers(1, 100)) * 2
        rate = data.draw(st.floats(1.0, 1e6))
        cutoff = data.draw(st.floats(0, rate / 2, exclude_min=True, exclude_max=True))
        try:
            filt = design_lowpass(order, cutoff, rate)
        except DomainError:
            return
        sos = filt.sos
        assert np.isfinite(sos).all()
        dc_gain = np.prod(sos[:, :3].sum(axis=1) / sos[:, 3:].sum(axis=1))
        assert abs(dc_gain - 1) <= 1e-6

    @settings(deadline=None, max_examples=300)
    @given(order=st.integers(1, 100).map(lambda k: 2 * k),
           rate=st.floats(1e-3, 1e9), fraction=st.floats(0, 1, exclude_min=True,
                                                         exclude_max=True))
    @example(order=2, rate=4.0, fraction=5e-324)       # the cutoff underflows to 0
    @example(order=6, rate=2.0, fraction=5e-324)       # the poles reach the real axis
    @example(order=56, rate=174353.0, fraction=87176 / 87176.5)  # the gain overflows
    @example(order=100, rate=160000.0, fraction=4500 / 80000)
    @example(order=74, rate=1.0, fraction=0.5)  # a pole on the imaginary axis: a1 = +0.0
    @example(order=300, rate=160000.0, fraction=4500 / 80000)   # DC gain 1.33
    def test_sections_equal_butter(self, order, rate, fraction):
        cutoff = fraction * (rate / 2)
        assume(0 < cutoff < rate / 2)
        expected = butter_or_none(order, cutoff, rate)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                sos = design_lowpass(order, cutoff, rate).sos
            except DomainError:
                sos = None
        if expected is None:
            assert sos is None
        else:
            assert sos is not None and sos.tobytes() == expected.tobytes()

    def test_equal_designs_are_equal_copies(self):
        first, second = design_lowpass(100, 4500, 160000), design_lowpass(100, 4500, 160000)
        assert first.sos.tobytes() == second.sos.tobytes()
        assert not np.shares_memory(first.sos, second.sos)

    def test_writing_a_design_leaves_the_next_unchanged(self):
        filt = design_lowpass(100, 4500, 160000)
        expected = filt.sos.tobytes()
        filt.sos[:] = 0.0
        assert design_lowpass(100, 4500, 160000).sos.tobytes() == expected

    def test_memoized_design_applies(self):
        from scipy.signal import sosfilt

        design_lowpass(100, 4500, 160000)
        filt = design_lowpass(100, 4500, 160000)
        x = np.random.default_rng(0).standard_normal(1000)
        assert filt.apply(x).tobytes() == sosfilt(butter_or_none(100, 4500, 160000), x).tobytes()

    def test_equal_designs_call_butter_once(self, monkeypatch):
        import scipy.signal

        calls, butter = [], scipy.signal.butter

        def spy(*args, **kwargs):
            calls.append(args)
            return butter(*args, **kwargs)

        monkeypatch.setattr(scipy.signal, "butter", spy)
        ingest._butter_sos.cache_clear()
        for _ in range(3):
            design_lowpass(100, 4500, 160000)
        design_lowpass(50, 4500, 160000)
        assert calls == [(100, 4500), (50, 4500)]

    def test_degenerate_design_raises_every_call(self):
        for _ in range(3):
            with pytest.raises(DomainError, match="numerically degenerate"):
                design_lowpass(400, 4500, 160000)


def butter_or_none(order, cutoff, rate):
    """scipy's design for `design_lowpass`, or None where it must refuse: butter
    raises, a section is not finite, or the DC gain is off 1 by more than 1e-6."""
    from scipy.signal import butter

    with np.errstate(all="ignore"):
        try:
            sos = butter(order, cutoff, btype="low", fs=rate, output="sos")
        except (ValueError, OverflowError):
            return None
        dc_gain = np.prod(sos[:, :3].sum(axis=1) / sos[:, 3:].sum(axis=1))
    if not (np.isfinite(sos).all() and abs(dc_gain - 1) <= 1e-6):
        return None
    return sos


def test_scipy_signal_loads_only_to_filter():
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import chatterdetect, chatterdetect.cli\n"
        "before = 'scipy.signal' in sys.modules or 'concurrent.futures.thread' in sys.modules\n"
        "filt = chatterdetect.design_lowpass(100, 4500, 160000)\n"
        "designed = 'scipy.signal' in sys.modules\n"
        "filt.apply([1.0, 2.0, 3.0])\n"
        "print(before, designed, 'scipy.signal' in sys.modules)\n"
    )
    src = Path(chatterdetect.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.split() == ["False", "True", "True"]


@pytest.mark.parametrize("rate", [float("nan"), float("inf"), 0.0, -5.0])
def test_rate_must_be_finite_and_positive(tmp_path, rate):
    match = "must be finite and positive"
    with pytest.raises(ValidationError, match=match):
        TimeSeries(np.ones(4), rate)
    with pytest.raises(DomainError, match=match):
        load_timeseries(write(tmp_path, "1.0\n2.0\n"), rate)
    with pytest.raises(DomainError, match=match):
        filter_and_downsample(TimeSeries(np.ones(4), 1000), design_lowpass(0, 100, 1000), rate)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_sample_rejected(bad):
    samples = np.arange(6.0)
    samples[[3, 5]] = bad
    with pytest.raises(ValidationError, match=rf"^sample 3 is not finite \({bad}\)$"):
        TimeSeries(samples, 1000)


@pytest.mark.parametrize("band", [(900.0, float("inf")), (900.0, float("nan")),
                                  (float("-inf"), 1000.0)])
def test_chatter_band_must_be_finite(band):
    with pytest.raises(ValidationError, match="stickout 'x': chatter band"):
        CuttingConfig("x", band)


class TestManifestValues:
    def test_byte_order_mark_accepted(self, tmp_path):
        path = write(tmp_path, '\ufeff{"records": [{"signal_path": "s.csv", "label_path": '
                               '"l.csv", "stickout_id": "x", "sample_rate_hz": 20000}], '
                               '"configs": {"x": {"chatter_band_hz": [900, 1000]}}}',
                     "manifest.json")
        manifest = load_manifest(path)
        assert manifest.records[0].sample_rate_hz == 20000.0
        assert manifest.config("x").chatter_band_hz == (900.0, 1000.0)

    def test_infinite_band_edge_rejected(self, tmp_path):
        path = write(tmp_path, '{"configs": {"x": {"chatter_band_hz": [900, Infinity]}}}',
                     "manifest.json")
        with pytest.raises(ValidationError, match="stickout 'x': chatter band") as exc:
            load_manifest(path)
        assert str(exc.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("stickout, band", [("2", (900.0, 1000.0)),
                                                ("11.43", (2900.0, 3000.0))])
    def test_built_in_band_without_configs(self, tmp_path, stickout, band):
        path = write(tmp_path, '[{"signal_path": "s.csv", "label_path": "l.csv",'
                               f' "stickout_id": "{stickout}"}}]', "manifest.json")
        assert load_manifest(path).config(stickout) == CuttingConfig(stickout, band)

    def test_boolean_sample_rate_rejected(self, tmp_path):
        path = write(tmp_path, '[{"signal_path": "s.csv", "label_path": "l.csv",'
                               ' "stickout_id": "x", "sample_rate_hz": true}]', "manifest.json")
        with pytest.raises(ValidationError,
                           match="record 0: sample_rate_hz must be a number, got True"):
            load_manifest(path)

    @pytest.mark.parametrize("rate, shown", [('"1e4"', "'1e4'"), ("null", "None"),
                                             ("[10000]", r"\[10000\]")])
    def test_non_numeric_sample_rate_rejected(self, tmp_path, rate, shown):
        path = write(tmp_path, '[{"signal_path": "s.csv", "label_path": "l.csv",'
                               f' "stickout_id": "x", "sample_rate_hz": {rate}}}]',
                     "manifest.json")
        with pytest.raises(ValidationError,
                           match=f"record 0: sample_rate_hz must be a number, got {shown}$"):
            load_manifest(path)


    @pytest.mark.parametrize("field", ["stickout_id", "file_id"])
    @pytest.mark.parametrize("value", [None, True, False, ["a"], {"a": 1}])
    def test_non_string_id_rejected(self, tmp_path, field, value):
        record = {"signal_path": "s.csv", "label_path": "l.csv", "stickout_id": "x",
                  field: value}
        path = write(tmp_path, json.dumps([record]), "manifest.json")
        with pytest.raises(ValidationError) as exc:
            load_manifest(path)
        assert str(exc.value) == (f"{path}: manifest record 0: {field} must be a string "
                                  f"or a number, got {value!r}")

    def test_numeric_and_string_ids_load_as_text(self, tmp_path):
        path = write(tmp_path, '[{"signal_path": "s.csv", "label_path": "l.csv",'
                               ' "stickout_id": 2.5, "file_id": 7},'
                               ' {"signal_path": "s.csv", "label_path": "l.csv",'
                               ' "stickout_id": "2.5", "file_id": "run 8"}]', "manifest.json")
        records = load_manifest(path).records
        assert [(r.stickout_id, r.file_id) for r in records] == [("2.5", "7"), ("2.5", "run 8")]


# a JSON id is a string or a non-boolean number and loads as its text
json_ids = st.one_of(st.text(max_size=6), st.integers(-10**6, 10**6),
                     st.floats(allow_nan=False, allow_infinity=False))
relative_paths = st.from_regex(r"[a-z]{1,6}(/[a-z]{1,6})?\.csv", fullmatch=True)
HUGE_RATE = object()  # written into the JSON text as 1e400, beyond the float range
bad_rates = st.one_of(st.text(max_size=5), st.none(), st.sampled_from([0, 0.0, -0.0]),
                      st.integers(-10**30, 0),
                      st.floats(max_value=0.0, allow_nan=False, allow_infinity=False),
                      st.just(HUGE_RATE))
bad_ids = st.one_of(st.none(), st.booleans(), st.lists(json_ids, max_size=2),
                    st.dictionaries(st.text(max_size=3), json_ids, max_size=2))
bands = st.lists(st.floats(1e-3, 1e6), min_size=2, max_size=2, unique=True).map(sorted)


@st.composite
def manifest_documents(draw):
    """Valid records, the configs map (None for the bare-list form, empty for
    an object without one), and what each record loads as, its paths relative
    to the manifest's folder: (signal, labels, stickout id, rate, file id)."""
    file_ids = draw(st.lists(json_ids, min_size=1, max_size=5, unique_by=str))
    records, loaded = [], []
    for i, file_id in enumerate(file_ids):
        rec = {"signal_path": draw(relative_paths), "label_path": draw(relative_paths),
               "stickout_id": draw(json_ids)}
        rate = draw(st.none() | st.integers(1, 10**30)
                    | st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
        if rate is not None:
            rec["sample_rate_hz"] = rate
        if draw(st.booleans()):
            rec["file_id"] = file_id
        records.append(rec)
        loaded.append((rec["signal_path"], rec["label_path"], str(rec["stickout_id"]),
                       10000.0 if rate is None else float(rate),
                       str(rec.get("file_id", f"rec{i:04d}"))))
    assume(len({r[-1] for r in loaded}) == len(loaded))
    form = draw(st.sampled_from(["list", "object", "configs"]))
    configs = draw(st.dictionaries(st.text(max_size=6), bands, max_size=3))
    return records, {"list": None, "object": {}, "configs": configs}[form], loaded


def manifest_text(records, configs, huge_rate_at=None):
    """The manifest as JSON: a bare list when configs is None, else an object
    with a configs map when it is nonempty; record huge_rate_at gets the rate
    1e400, which json.dumps cannot write."""
    texts = [json.dumps(rec) for rec in records]
    if huge_rate_at is not None:
        texts[huge_rate_at] = texts[huge_rate_at][:-1] + ', "sample_rate_hz": 1e400}'
    text = "[" + ", ".join(texts) + "]"
    if configs is None:
        return text
    if configs:
        bands_text = json.dumps({k: {"chatter_band_hz": v} for k, v in configs.items()})
        text += f', "configs": {bands_text}'
    return '{"records": ' + text + "}"


@pytest.fixture(scope="module")
def manifest_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("manifests")


class TestManifestProperties:
    @settings(deadline=None, max_examples=80)
    @given(doc=manifest_documents())
    def test_valid_records_load(self, manifest_dir, doc):
        records, configs, loaded = doc
        path = write(manifest_dir, manifest_text(records, configs), "manifest.json")
        manifest = load_manifest(path)
        folder = manifest_dir.resolve()
        assert manifest.records == [
            ManifestRecord(str(folder / signal), str(folder / labels), sid, rate, file_id)
            for signal, labels, sid, rate, file_id in loaded]
        assert all(type(r.sample_rate_hz) is float for r in manifest.records)
        assert manifest.configs == {sid: CuttingConfig(sid, tuple(band))
                                    for sid, band in (configs or {}).items()}

    @settings(deadline=None, max_examples=120)
    @given(doc=manifest_documents(), data=st.data())
    def test_corrupt_record_is_named(self, manifest_dir, doc, data):
        records, configs, loaded = doc
        i = data.draw(st.integers(0, len(records) - 1), label="corrupt record")
        rec, huge_rate_at = records[i], None
        fault = data.draw(st.sampled_from(["missing", "rate", "id", "repeated"]), label="fault")
        if fault == "missing":
            del rec[data.draw(st.sampled_from(["signal_path", "label_path", "stickout_id"]))]
        elif fault == "rate":
            rec.pop("sample_rate_hz", None)
            rate = data.draw(bad_rates, label="rate")
            if rate is HUGE_RATE:
                huge_rate_at = i
            else:
                rec["sample_rate_hz"] = rate
        elif fault == "id":
            rec[data.draw(st.sampled_from(["stickout_id", "file_id"]))] = data.draw(bad_ids)
        else:
            assume(i > 0)
            j = data.draw(st.integers(0, i - 1), label="earlier record")
            rec["file_id"] = loaded[j][-1]
        path = write(manifest_dir, manifest_text(records, configs, huge_rate_at),
                     "manifest.json")
        with pytest.raises(ValidationError) as exc:
            load_manifest(path)
        if fault == "repeated":
            assert str(exc.value) == (f"{path}: manifest records {j} and {i} share file_id "
                                      f"{loaded[j][-1]!r}")
        else:
            assert re.match(rf"{re.escape(str(path))}: manifest record {i}[: ]", str(exc.value))


class TestFilterAndDownsample:
    def test_160k_to_10k(self):
        ts = TimeSeries(np.random.default_rng(0).standard_normal(1600), 160000)
        filt = design_lowpass(100, 10000, 160000)
        out = filter_and_downsample(ts, filt, 10000)
        assert out.samples.size == 100
        assert out.sample_rate_hz == 10000

    def test_constant_preserved(self):
        ts = TimeSeries(np.full(4000, 3.25), 8000)
        out = filter_and_downsample(ts, design_lowpass(8, 1000, 8000), 2000)
        assert np.allclose(out.samples[500:], 3.25, atol=1e-9)

    def test_identity(self):
        ts = TimeSeries(np.arange(10.0), 1000)
        out = filter_and_downsample(ts, design_lowpass(0, 100, 1000), 1000)
        assert np.array_equal(out.samples, ts.samples)

    def test_fewer_samples_than_factor_rejected(self):
        ts = TimeSeries(np.array([0.5, 0.25]), 160000)
        with pytest.raises(DomainError, match="2 samples .* factor 16"):
            filter_and_downsample(ts, design_lowpass(100, 4500, 160000), 10000)

    def test_non_integer_factor_rejected(self):
        ts = TimeSeries(np.arange(10.0), 1000)
        with pytest.raises(DomainError):
            filter_and_downsample(ts, design_lowpass(0, 100, 1000), 300)

    def test_antialiasing(self):
        # filtered signal holds essentially no energy above the target Nyquist
        fs, target = 160000.0, 10000.0
        rng = np.random.default_rng(1)
        noise = rng.standard_normal(int(fs * 0.5))
        filt = design_lowpass(100, 4000, fs)
        filtered = filt.apply(noise)
        spectrum = np.abs(np.fft.rfft(filtered)) ** 2
        freqs = np.arange(spectrum.size) * fs / filtered.size
        assert spectrum[freqs > target / 2].sum() / spectrum.sum() < 1e-4


BLOCK = ingest._BLOCK
THRESHOLD = ingest._MIN_BLOCKS * BLOCK  # the shortest signal apply pipelines
MIN_SECTIONS = ingest._MIN_SECTIONS  # the shortest cascade apply pipelines


def random_sections(rng, n_sections):
    """Stable second-order sections with random zeros and poles."""
    radius = rng.uniform(0, 0.99, n_sections)
    angle = rng.uniform(0, np.pi, n_sections)
    sos = np.ones((n_sections, 6))
    sos[:, :3] = rng.standard_normal((n_sections, 3))
    sos[:, 4] = -2 * radius * np.cos(angle)
    sos[:, 5] = radius**2
    return FilterCascade(sos)


class SpySosfilt:
    """scipy's sosfilt, recording the thread of each call; `fail_on(call)`
    says whether a call, given as (thread, number of calls before), raises."""

    def __init__(self, fail_on=lambda call: False):
        from scipy.signal import sosfilt

        self.sosfilt, self.fail_on, self.calls = sosfilt, fail_on, []

    def __call__(self, *args, **kwargs):
        call = (threading.current_thread(), len(self.calls))
        self.calls.append(call[0])
        if self.fail_on(call):
            raise RuntimeError(f"sosfilt failed in {call[0].name}")
        return self.sosfilt(*args, **kwargs)

    def workers(self):
        return {t for t in self.calls if t is not threading.main_thread()}


def spied_apply(filt, x, spy, cpus=2):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("scipy.signal.sosfilt", spy)
        mp.setattr(ingest, "_usable_cpus", lambda: cpus)
        return filt.apply(x)


class TestFilterPipeline:
    """FilterCascade.apply splits long signals across two threads; its output
    must stay bitwise equal to one sosfilt call, and its thread must not
    outlive the call."""

    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), n_sections=st.integers(1, 60),
           length=st.sampled_from([THRESHOLD + d for d in (-1, 0, 1)]
                                  + [k * BLOCK + d for k in (5, 7) for d in (-1, 0, 1)]))
    @example(seed=0, n_sections=1, length=THRESHOLD + 1)
    @example(seed=0, n_sections=MIN_SECTIONS - 1, length=7 * BLOCK + 1)
    @example(seed=0, n_sections=MIN_SECTIONS, length=THRESHOLD)
    @example(seed=0, n_sections=MIN_SECTIONS, length=THRESHOLD - 1)
    @example(seed=0, n_sections=60, length=7 * BLOCK + 1)
    def test_equals_one_sosfilt_call(self, seed, n_sections, length):
        from scipy.signal import sosfilt

        rng = np.random.default_rng(seed)
        filt = random_sections(rng, n_sections)
        x = rng.standard_normal(length)
        spy = SpySosfilt()
        out = spied_apply(filt, x, spy)
        assert out.tobytes() == sosfilt(filt.sos, x).tobytes()
        pipelined = length >= THRESHOLD and n_sections >= MIN_SECTIONS
        n_blocks = -(-length // BLOCK)
        assert len(spy.calls) == (2 * n_blocks if pipelined else 1)
        assert len(spy.workers()) == int(pipelined)

    @pytest.mark.parametrize("dtype", [np.complex128, np.longdouble])
    def test_wider_sections_make_one_call(self, dtype):
        # a float64 pipeline would cast the head half's output down
        rng = np.random.default_rng(0)
        sos = random_sections(rng, 50).sos.astype(dtype)
        if np.iscomplexobj(sos):
            sos[:, :3] += 1j * rng.standard_normal((50, 3))
        x = rng.standard_normal(5 * BLOCK)
        spy = SpySosfilt()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = spied_apply(FilterCascade(sos), x, spy)
        expected = spy.sosfilt(sos, x)
        assert out.dtype == expected.dtype == dtype
        assert np.array_equal(out, expected)  # not tobytes: longdouble has padding
        assert spy.calls == [threading.main_thread()]

    def test_one_cpu_makes_one_call(self):
        filt = design_lowpass(100, 4500, 160000)
        spy = SpySosfilt()
        spied_apply(filt, np.ones(8 * BLOCK), spy, cpus=1)
        assert spy.calls == [threading.main_thread()]

    def test_no_thread_outlives_apply(self):
        spy = SpySosfilt()
        spied_apply(design_lowpass(100, 4500, 160000), np.ones(5 * BLOCK), spy)
        (worker,) = spy.workers()
        assert not worker.is_alive()

    def test_worker_exception_reaches_the_caller(self):
        spy = SpySosfilt(lambda call: call[0] is not threading.main_thread() and call[1] >= 2)
        with pytest.raises(RuntimeError, match="sosfilt failed in FilterCascade.apply"):
            spied_apply(design_lowpass(100, 4500, 160000), np.ones(5 * BLOCK), spy)
        (worker,) = spy.workers()
        assert not worker.is_alive()

    def test_caller_exception_joins_the_worker(self):
        spy = SpySosfilt(lambda call: call[0] is threading.main_thread())
        with pytest.raises(RuntimeError, match="sosfilt failed in MainThread"):
            spied_apply(design_lowpass(100, 4500, 160000), np.ones(5 * BLOCK), spy)
        (worker,) = spy.workers()
        assert not worker.is_alive()

    def test_concurrent_calls_under_fast_switching(self, monkeypatch):
        # four callers and their four workers on fewer cores, switching often:
        # a block read before its head half is written would change the bits
        from scipy.signal import sosfilt

        monkeypatch.setattr(ingest, "_usable_cpus", lambda: 2)
        filt = design_lowpass(100, 4500, 160000)
        signals = [np.random.default_rng(i).standard_normal(5 * BLOCK + i) for i in range(4)]
        outs = [None] * len(signals)

        def run(i):
            outs[i] = filt.apply(signals[i])

        callers = [threading.Thread(target=run, args=(i,)) for i in range(len(signals))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        for x, out in zip(signals, outs):
            assert out.tobytes() == sosfilt(filt.sos, x).tobytes()


class TestCutSegments:
    def intervals(self):
        return [
            LabelInterval(0, 1, Label.STABLE),
            LabelInterval(1, 2, Label.CHATTER),
            LabelInterval(2, 3, Label.UNKNOWN),
        ]

    def test_unknown_dropped_and_binary_labels(self):
        ts = TimeSeries(np.arange(3000.0), 1000)
        segs = cut_segments(ts, self.intervals())
        assert [s.label for s in segs] == [0, 1]
        assert all(s.series.samples.size == 1000 for s in segs)

    def test_mild_maps_to_chatter(self):
        ts = TimeSeries(np.arange(1000.0), 1000)
        segs = cut_segments(ts, [LabelInterval(0, 1, Label.MILD)])
        assert [s.label for s in segs] == [1]

    def test_overlap_rejected(self):
        ts = TimeSeries(np.arange(2000.0), 1000)
        with pytest.raises(ValidationError):
            cut_segments(ts, [LabelInterval(0, 1, Label.STABLE),
                              LabelInterval(0.5, 1.5, Label.STABLE)])

    def test_outside_span_rejected(self):
        ts = TimeSeries(np.arange(1000.0), 1000)
        with pytest.raises(ValidationError):
            cut_segments(ts, [LabelInterval(0, 2, Label.STABLE)])

    def test_samples_trace_to_intervals(self):
        ts = TimeSeries(np.arange(3000.0), 1000)
        segs = cut_segments(ts, self.intervals())
        recovered = np.concatenate([s.series.samples for s in segs])
        assert np.array_equal(recovered, ts.samples[:2000])


class TestWindowSegments:
    def make(self, n, label=0):
        from chatterdetect import Segment

        return Segment(TimeSeries(np.arange(float(n)), 1000), label, ("f", 0))

    def test_remainder_discarded(self):
        assert len(window_segments([self.make(3500)], 1000)) == 3

    def test_too_short_gives_nothing(self):
        assert window_segments([self.make(999)], 1000) == []

    def test_label_inherited(self):
        wins = window_segments([self.make(2000, label=1)], 1000)
        assert [w.label for w in wins] == [1, 1]

    def test_bad_window_len(self):
        with pytest.raises(DomainError):
            window_segments([self.make(100)], 1)

    @given(st.lists(st.integers(2, 5000), min_size=1, max_size=6),
           st.integers(2, 1500))
    @settings(max_examples=30, deadline=None)
    def test_window_count_property(self, lengths, window_len):
        segs = [self.make(n) for n in lengths]
        wins = window_segments(segs, window_len)
        assert len(wins) == sum(n // window_len for n in lengths)
