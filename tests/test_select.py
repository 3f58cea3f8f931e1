import numpy as np
import pytest

from chatterdetect import (
    DomainError,
    EemdParams,
    FrequencyBand,
    ImfSet,
    TimeSeries,
    eemd,
    emd,
    energy_ratios,
    in_band_fraction,
    select_imf,
    select_packet,
    wpt_decompose,
)
from synthetic_corpus import BAND, FS, make_segments

CHATTER_BAND = FrequencyBand(*BAND)


def chatter_trees(level=3, n=4, seed=0, chatter_hz=950.0):
    segments = make_segments(seed=seed, n_stable=0, n_chatter=n,
                             chatter_hz=chatter_hz)
    return [wpt_decompose(s.series, level) for s in segments]


def packet_choice(trees, level, band=CHATTER_BAND):
    rows = [energy_ratios(t, level) for t in trees]
    return select_packet(rows, band, level, FS)


def imf_choice(sets):
    return select_imf(
        [[in_band_fraction(c, CHATTER_BAND, FS) for c in s.imfs] for s in sets]
    )


class TestSelectInformativePacket:
    def test_picks_chatter_band_packet_level3(self):
        choice = packet_choice(chatter_trees(3), 3)
        # 900-1000 Hz lies inside the 625-1250 Hz packet
        assert choice["kind"] == "packet" and choice["level"] == 3
        assert choice["index"] == 2
        assert choice["band_hz"] == [625, 1250]

    def test_picks_chatter_band_packet_level4(self):
        choice = packet_choice(chatter_trees(4), 4)
        # the 950 Hz tone falls in 937.5-1250 Hz, the upper of two candidates
        assert list(choice["candidates"]) == ["3", "4"]
        assert choice["index"] == 4

    def test_tone_position_moves_choice(self):
        low = packet_choice(chatter_trees(4, chatter_hz=910.0), 4)
        assert low["index"] == 3

    def test_mean_ratio_bounds(self):
        choice = packet_choice(chatter_trees(3), 3)
        assert 0.0 < choice["mean_energy_ratio"] <= 1.0
        assert choice["mean_energy_ratio"] == choice["candidates"]["2"]

    def test_scale_invariant(self):
        trees = chatter_trees(4, n=2)
        scaled = [
            wpt_decompose(
                TimeSeries(3.0 * t._nodes[(0, 0)][: t.original_length],
                           t.sample_rate_hz),
                4,
            )
            for t in trees
        ]
        assert packet_choice(trees, 4)["index"] == packet_choice(scaled, 4)["index"]

    def test_deterministic(self):
        trees = chatter_trees(3)
        assert packet_choice(trees, 3) == packet_choice(trees, 3)

    def test_band_outside_nyquist_rejected(self):
        with pytest.raises(DomainError):
            packet_choice(chatter_trees(3, n=1), 3, FrequencyBand(6000.0, 7000.0))

    def test_no_trees_rejected(self):
        with pytest.raises(DomainError):
            packet_choice([], 3)

    def test_tie_breaks_to_lower_packet(self):
        # level 4 candidates are packets 3 and 4; give both the same ratio
        rows = [np.full(16, 1 / 16), np.full(16, 1 / 16)]
        choice = select_packet(rows, CHATTER_BAND, 4, FS)
        assert choice["candidates"]["3"] == choice["candidates"]["4"]
        assert choice["index"] == 3


class TestSelectInformativeImf:
    def decompositions(self, n=3, seed=0):
        segments = make_segments(seed=seed, n_stable=0, n_chatter=n,
                                 seg_len=1500)
        return [emd(s.series.samples) for s in segments]

    def test_picks_band_dominant_imf(self):
        sets = self.decompositions()
        choice = imf_choice(sets)
        frac_best = np.mean([
            _frac(s.imfs[choice["index"] - 1]) for s in sets
            if s.n_imfs >= choice["index"]
        ])
        others = [
            np.mean([_frac(s.imfs[i]) for s in sets if s.n_imfs > i])
            for i in range(max(s.n_imfs for s in sets))
            if i != choice["index"] - 1
        ]
        assert frac_best > max(others)
        assert 0.0 < choice["band_overlap_score"] <= 1.0

    def test_synthetic_two_component(self):
        # component 1 in band, component 2 far below: index 1 must win
        t = np.arange(2000) / FS
        fast = np.sin(2 * np.pi * 950.0 * t)
        slow = np.sin(2 * np.pi * 50.0 * t)
        choice = imf_choice([ImfSet([fast, slow], np.zeros(t.size))])
        assert choice["kind"] == "imf"
        assert choice["index"] == 1
        assert choice["band_overlap_score"] > 0.95
        assert choice["scores"][1] < 0.05

    def test_absent_imfs_score_zero(self):
        t = np.arange(2000) / FS
        fast = np.sin(2 * np.pi * 950.0 * t)
        slow = np.sin(2 * np.pi * 50.0 * t)
        deep = ImfSet([slow.copy(), slow.copy(), fast], np.zeros(t.size))
        shallow = ImfSet([slow.copy()], np.zeros(t.size))
        choice = imf_choice([deep, shallow])
        # the in-band component only exists in one of two sets, so its mean
        # halves but still beats the out-of-band components
        assert choice["index"] == 3
        assert choice["band_overlap_score"] < 0.55

    def test_deterministic(self):
        sets = self.decompositions(n=2)
        assert imf_choice(sets) == imf_choice(sets)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            imf_choice([])

    def test_set_without_imfs_rejected(self):
        with pytest.raises(DomainError):
            imf_choice([ImfSet([], np.zeros(100))])

    def test_eemd_input_accepted(self):
        segments = make_segments(seed=1, n_stable=0, n_chatter=1, seg_len=1000)
        sets = [eemd(segments[0].series.samples,
                     EemdParams(ensemble_size=4, master_seed=0))]
        choice = imf_choice(sets)
        assert 1 <= choice["index"] <= sets[0].n_imfs

    def test_tie_breaks_to_lower_imf(self):
        choice = select_imf([[0.1, 0.4, 0.4], [0.1, 0.4, 0.4]])
        assert choice["scores"][1] == choice["scores"][2]
        assert choice["index"] == 2


def test_in_band_fraction_of_zero_imf_is_zero():
    assert in_band_fraction(np.zeros(64), CHATTER_BAND, FS) == 0.0


def _frac(c):
    spectrum = np.abs(np.fft.rfft(c)) ** 2
    freqs = np.arange(spectrum.size) * FS / len(c)
    mask = (freqs >= BAND[0]) & (freqs <= BAND[1])
    return spectrum[mask].sum() / spectrum.sum()
