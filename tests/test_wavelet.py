import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chatterdetect import (
    DomainError,
    FrequencyBand,
    TimeSeries,
    db10_filters,
    energy_ratios,
    packet_band,
    predict_informative_packets,
    reconstruct_packet,
    wpt_decompose,
)

FS = 10000.0


def tone(freq, n=10000, fs=FS):
    return TimeSeries(np.sin(2 * np.pi * freq * np.arange(n) / fs), fs)


class TestDb10Filters:
    def test_tap_count_and_sum(self):
        f = db10_filters()
        assert f.lowpass.size == 20 and f.highpass.size == 20
        assert abs(f.lowpass.sum() - np.sqrt(2)) < 1e-10

    def test_double_shift_orthogonality(self):
        lo = db10_filters().lowpass
        for m in range(1, 10):
            assert abs(np.dot(lo[: -2 * m], lo[2 * m :])) < 1e-10
        assert abs(np.dot(lo, lo) - 1.0) < 1e-10

    def test_quadrature_mirror(self):
        f = db10_filters()
        expected = f.lowpass[::-1] * (-1.0) ** np.arange(20)
        assert np.allclose(f.highpass, expected, atol=0)

    def test_vanishing_moments(self):
        # the transfer polynomial carries a zero of multiplicity 10 at z=-1,
        # checked through successive derivatives (independent of the
        # spectral-factorization construction path)
        coeffs = np.polynomial.Polynomial(db10_filters().lowpass)
        poly = coeffs
        for order in range(10):
            assert abs(poly(-1.0)) < 1e-8 * max(1.0, np.abs(poly.coef).max())
            poly = poly.deriv()

    def test_deterministic(self):
        a, b = db10_filters(), db10_filters()
        assert np.array_equal(a.lowpass, b.lowpass)

    def test_golden_bits(self):
        # every report digest rests on these exact coefficients
        f = db10_filters()
        data = np.concatenate([f.lowpass, f.highpass]).astype("<f8").tobytes()
        assert hashlib.sha256(data).hexdigest() == (
            "35d4ab0b3a43694b94a58a5a2400bd875fb8df51da4eead74a57826836b31990")


class TestDecompose:
    def test_level3_packet_count(self):
        tr = wpt_decompose(tone(500), 3)
        assert len(tr.packets(3)) == 8

    def test_in_band_tone_dominates(self):
        tr = wpt_decompose(tone(800), 3)
        ratios = energy_ratios(tr, 3)
        assert ratios[1] > 0.9  # packet 2 covers 625-1250 Hz

    def test_zero_signal_packets_zero(self):
        tr = wpt_decompose(TimeSeries(np.zeros(256), FS), 3)
        assert all(np.allclose(p, 0) for p in tr.packets(3))

    def test_too_short_rejected(self):
        with pytest.raises(DomainError):
            wpt_decompose(TimeSeries(np.ones(8), FS), 4)

    def test_bad_level_rejected(self):
        with pytest.raises(DomainError):
            wpt_decompose(tone(100), 5)
        with pytest.raises(DomainError):
            wpt_decompose(tone(100), 0)


class TestReconstruction:
    @pytest.mark.parametrize("n", [256, 1000, 4096])
    def test_perfect_reconstruction_and_energy(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        ts = TimeSeries(x, FS)
        for level in range(1, 5):
            tr = wpt_decompose(ts, level)
            total = np.zeros(n)
            for j in range(2**level):
                total += reconstruct_packet(tr, level, j + 1).samples
            assert np.linalg.norm(total - x) / np.linalg.norm(x) < 1e-8
            energy = sum(float(np.sum(p**2)) for p in tr.packets(level))
            assert abs(energy - np.sum(x**2)) / np.sum(x**2) < 1e-6

    def test_single_packet_band_content(self):
        # 900 Hz lies mid-band in level-3 packet 2 (625-1250 Hz), so its
        # reconstruction keeps nearly all the energy inside that band
        tr = wpt_decompose(tone(900), 3)
        rec = reconstruct_packet(tr, 3, 2).samples
        spectrum = np.abs(np.fft.rfft(rec)) ** 2
        freqs = np.arange(spectrum.size) * FS / rec.size
        in_band = (freqs >= 625) & (freqs <= 1250)
        assert spectrum[in_band].sum() / spectrum.sum() >= 0.95

    def test_zero_signal_reconstructs_zero(self):
        tr = wpt_decompose(TimeSeries(np.zeros(256), FS), 2)
        assert np.allclose(reconstruct_packet(tr, 2, 1).samples, 0)

    def test_index_out_of_range(self):
        tr = wpt_decompose(tone(100), 2)
        with pytest.raises(DomainError):
            reconstruct_packet(tr, 2, 5)


class TestLeaves:
    def test_one_array_per_level(self):
        tree = wpt_decompose(tone(100, n=1001), 4)
        assert tree.level == 4 and sorted(tree.levels) == [1, 2, 3, 4]
        for k, rows in tree.levels.items():
            assert rows.shape == (2**k, 1008 // 2**k)  # 1001 padded to a multiple of 16

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(16, 3000), level=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           exponent=st.floats(-5.0, 5.0))
    def test_leaves_read_like_the_full_tree(self, n, level, seed, exponent):
        x = np.random.default_rng(seed).standard_normal(n) * 10.0**exponent
        tree = wpt_decompose(TimeSeries(x, FS), level)
        leaves = tree.leaves()
        assert leaves.level == level and leaves.original_length == n
        for j in range(1, 2**level + 1):
            assert (reconstruct_packet(leaves, level, j).samples.tobytes()
                    == reconstruct_packet(tree, level, j).samples.tobytes())
        assert energy_ratios(leaves, level).tobytes() == energy_ratios(tree, level).tobytes()
        # the packet-by-packet sums that energy_ratios made before its row reduction
        energies = np.array([float(np.sum(p**2)) for p in tree.packets(level)])
        assert energy_ratios(tree, level).tobytes() == (energies / energies.sum()).tobytes()
        for k in range(1, level):
            with pytest.raises(DomainError):
                leaves.packet(k, 1)


class TestEnergyRatios:
    def test_normalization(self):
        ratios = energy_ratios(wpt_decompose(tone(1234), 4), 4)
        assert abs(ratios.sum() - 1.0) < 1e-12
        assert np.all(ratios >= 0)

    def test_white_noise_level1_split(self):
        rng = np.random.default_rng(5)
        ts = TimeSeries(rng.standard_normal(2**16), FS)
        ratios = energy_ratios(wpt_decompose(ts, 1), 1)
        assert abs(ratios[0] - 0.5) < 0.05

    def test_zero_signal_rejected(self):
        tr = wpt_decompose(TimeSeries(np.zeros(256), FS), 1)
        with pytest.raises(DomainError):
            energy_ratios(tr, 1)

    def test_frequency_ordering_monotone(self):
        # argmax packet index non-decreasing in tone frequency
        last = 0
        for freq in np.arange(200, 4900, 250):
            ratios = energy_ratios(wpt_decompose(tone(freq), 4), 4)
            idx = int(np.argmax(ratios)) + 1
            assert idx >= last
            last = idx


class TestPacketBand:
    def test_level3_first_band(self):
        band = packet_band(3, 1, FS)
        assert band.low_hz == 0 and band.high_hz == 625

    def test_level4_packet3(self):
        band = packet_band(4, 3, FS)
        assert band.low_hz == 625 and band.high_hz == 937.5

    def test_level1_upper_half(self):
        band = packet_band(1, 2, FS)
        assert band.low_hz == 2500 and band.high_hz == 5000

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            packet_band(3, 9, FS)

    def test_level_zero_rejected(self):
        with pytest.raises(DomainError, match="level must be positive, got 0"):
            packet_band(0, 1, FS)


class TestPredictInformativePackets:
    @pytest.mark.parametrize(
        "band,expected",
        [
            ((900, 1000), {3, 4}),
            ((1200, 1300), {4, 5}),
            ((1600, 1700), {6}),
            ((2900, 3000), {10}),
            ((0, 300), {1}),
        ],
    )
    def test_level4_sets(self, band, expected):
        got = predict_informative_packets(FrequencyBand(*band), 4, FS)
        assert got == expected

    def test_contiguous(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            lo = rng.uniform(0, 4000)
            hi = lo + rng.uniform(10, 800)
            got = sorted(predict_informative_packets(FrequencyBand(lo, hi), 4, FS))
            assert got == list(range(got[0], got[-1] + 1))

    @pytest.mark.parametrize("band", [(1000, 1000), (1000, 900), (-5, 300)])
    def test_empty_or_negative_band_rejected(self, band):
        with pytest.raises(DomainError, match="band must satisfy 0 <= low < high"):
            predict_informative_packets(FrequencyBand(*band), 4, FS)
