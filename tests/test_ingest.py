import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chatterdetect import (
    DomainError,
    Label,
    LabelInterval,
    ParseError,
    TimeSeries,
    ValidationError,
    cut_segments,
    design_lowpass,
    filter_and_downsample,
    load_labels,
    load_timeseries,
    window_segments,
)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
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


class TestLoadLabels:
    def test_basic(self, tmp_path):
        path = write(tmp_path, "start_s,end_s,label\n0,1,stable\n1,2,CHATTER\n2,3,Mild\n")
        labels = load_labels(path)
        assert [iv.label for iv in labels] == [Label.STABLE, Label.CHATTER, Label.MILD]

    def test_unknown_label_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            load_labels(write(tmp_path, "0,1,weird\n"))

    def test_non_finite_bound_rejected_with_line(self, tmp_path):
        with pytest.raises(ParseError, match="line 2.*end_s"):
            load_labels(write(tmp_path, "0,1,stable\n1,nan,chatter\n"))


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

    def test_mild_dropped_when_not_merged(self):
        ts = TimeSeries(np.arange(1000.0), 1000)
        assert cut_segments(ts, [LabelInterval(0, 1, Label.MILD)],
                            mild_as_chatter=False) == []

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
