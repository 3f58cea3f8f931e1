import math

import numpy as np
import pytest

from chatterdetect import (
    DomainError,
    ImfSet,
    eemd_features,
    magnitude_spectrum,
    wpt_features,
)


def dft_magnitudes(x):
    """Direct-summation one-sided DFT magnitudes, no FFT involved."""
    n = len(x)
    mags = []
    for k in range(n // 2 + 1):
        re = sum(x[i] * math.cos(2 * math.pi * k * i / n) for i in range(n))
        im = sum(-x[i] * math.sin(2 * math.pi * k * i / n) for i in range(n))
        mags.append(math.hypot(re, im))
    return mags


def oracle_wpt_features(x, fs):
    """Pure-Python reimplementation of the fourteen statistics."""
    x = [float(v) for v in x]
    n = len(x)
    a1 = sum(x) / n
    a2 = math.sqrt(sum((v - a1) ** 2 for v in x) / (n - 1))
    a3 = math.sqrt(sum(v * v for v in x) / n)
    a4 = max(abs(v) for v in x)
    a5 = sum((v - a1) ** 3 for v in x) / ((n - 1) * a3**3)
    a6 = sum((v - a1) ** 4 for v in x) / ((n - 1) * a3**4)
    a7 = a4 / a3
    root_mean = sum(math.sqrt(abs(v)) for v in x) / n
    abs_mean = sum(abs(v) for v in x) / n
    a8 = a4 / root_mean**2
    a9 = a3 / abs_mean
    a10 = a4 / abs_mean
    mags = dft_magnitudes(x)
    freqs = [k * fs / n for k in range(len(mags))]
    total = sum(mags)
    dt = 1.0 / fs
    a11 = sum(f * f * m for f, m in zip(freqs, mags)) / total
    a12 = sum(math.cos(2 * math.pi * f * dt) * m for f, m in zip(freqs, mags)) / total
    a13 = sum(f * m for f, m in zip(freqs, mags)) / total
    a14 = sum((f - a13) ** 2 * m for f, m in zip(freqs, mags)) / total
    return [a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14]


def oracle_eemd_features(imfs, index):
    c = [float(v) for v in imfs[index - 1]]
    n = len(c)
    total = sum(sum(float(v) ** 2 for v in ci) for ci in imfs)
    f1 = sum(v * v for v in c) / total
    f2 = max(c) - min(c)
    mean = sum(c) / n
    f3 = math.sqrt(sum((v - mean) ** 2 for v in c) / (n - 1))
    f4 = math.sqrt(sum(v * v for v in c) / n)
    f5 = max(c) / f4
    f6 = sum((v - mean) ** 3 for v in c) / ((n - 1) * f4**3)
    f7 = sum((v - mean) ** 4 for v in c) / ((n - 1) * f4**4)
    return [f1, f2, f3, f4, f5, f6, f7]


class TestMagnitudeSpectrum:
    def test_matches_direct_summation(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(32)
        freqs, mags = magnitude_spectrum(x, 1000.0)
        expected = dft_magnitudes(list(x))
        assert mags.size == 17
        assert np.allclose(mags, expected, atol=1e-9)
        assert np.allclose(freqs, [k * 1000.0 / 32 for k in range(17)])

    def test_tone_bin(self):
        fs, n = 1000.0, 1000
        x = np.sin(2 * np.pi * 50 * np.arange(n) / fs)
        freqs, mags = magnitude_spectrum(x, fs)
        assert freqs[int(np.argmax(mags))] == 50.0

    def test_too_short(self):
        with pytest.raises(DomainError):
            magnitude_spectrum(np.array([1.0]), 1000.0)


class TestWptFeatures:
    def test_against_oracle_random(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(16, 64))
            x = rng.standard_normal(n) * rng.uniform(0.1, 10)
            got = wpt_features(x, 1000.0)
            want = oracle_wpt_features(x, 1000.0)
            assert np.allclose(got, want, rtol=1e-10, atol=1e-10)

    def test_sine_crest_factor(self):
        x = np.sin(2 * np.pi * np.arange(1000) / 100.0)
        vals = wpt_features(x, 1000.0)
        assert abs(vals[6] - math.sqrt(2)) < 0.01  # crest factor of a sine

    def test_sine_one_step_autocorr(self):
        fs, f = 10000.0, 950.0
        x = np.sin(2 * np.pi * f * np.arange(4000) / fs)
        vals = wpt_features(x, fs)
        assert abs(vals[11] - math.cos(2 * math.pi * f / fs)) < 1e-3

    def test_sine_frequency_center(self):
        fs, f = 10000.0, 1250.0
        x = np.sin(2 * np.pi * f * np.arange(8000) / fs)
        vals = wpt_features(x, fs)
        assert abs(vals[12] - f) < 1.0
        assert abs(vals[10] - f * f) / (f * f) < 0.01

    def test_ratio_features_scale_invariant(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(200)
        base = wpt_features(x, 1000.0)
        scaled = wpt_features(7.5 * x, 1000.0)
        # a5..a14 are scale-free; a1..a4 scale linearly
        assert np.allclose(scaled[:4], 7.5 * base[:4])
        assert np.allclose(scaled[4:], base[4:], rtol=1e-9)

    def test_mean_and_peak(self):
        x = np.array([1.0, -3.0, 2.0, 0.0])
        vals = wpt_features(x, 10.0)
        assert vals[0] == 0.0
        assert vals[3] == 3.0

    def test_zero_signal_rejected(self):
        with pytest.raises(DomainError):
            wpt_features(np.zeros(16), 1000.0)

    def test_too_short_rejected(self):
        with pytest.raises(DomainError):
            wpt_features(np.ones(3), 1000.0)


class TestEemdFeatures:
    def make_imfs(self, seed=0, n_imfs=3, n=128):
        rng = np.random.default_rng(seed)
        imfs = [rng.standard_normal(n) for _ in range(n_imfs)]
        return ImfSet(imfs, rng.standard_normal(n))

    def test_against_oracle_random(self):
        for seed in range(10):
            imfs = self.make_imfs(seed)
            for idx in (1, 2, 3):
                got = eemd_features(imfs, idx)
                want = oracle_eemd_features(imfs.imfs, idx)
                assert np.allclose(got, want, rtol=1e-10, atol=1e-10)

    def test_energy_ratios_sum_to_one(self):
        imfs = self.make_imfs(4)
        total = sum(
            eemd_features(imfs, i + 1)[0] for i in range(imfs.n_imfs)
        )
        assert abs(total - 1.0) < 1e-12

    def test_residue_excluded_from_energy(self):
        c = np.sin(np.linspace(0, 20, 100))
        imfs = ImfSet([c], np.full(100, 100.0))
        assert eemd_features(imfs, 1)[0] == 1.0

    def test_peak_to_peak(self):
        c = np.array([-2.0, 0.5, 3.0, 1.0])
        vals = eemd_features(ImfSet([c], np.zeros(4)), 1)
        assert vals[1] == 5.0

    def test_crest_uses_signed_max(self):
        c = np.array([-3.0, 1.0, -1.0, 1.0])
        vals = eemd_features(ImfSet([c], np.zeros(4)), 1)
        rms = math.sqrt(3.0)
        assert abs(vals[4] - 1.0 / rms) < 1e-12

    def test_bad_index_rejected(self):
        imfs = self.make_imfs()
        with pytest.raises(DomainError):
            eemd_features(imfs, 0)
        with pytest.raises(DomainError):
            eemd_features(imfs, 4)
