import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def parent_wpt_moments(x):
    """wpt_features' mean, std, RMS, skewness and kurtosis as computed one
    signal at a time before the shared moments kernel: the bitwise
    reference for columns 0, 1, 2, 4 and 5."""
    n = x.size
    a1 = float(np.mean(x))
    a2 = float(np.std(x, ddof=1))
    a3 = float(np.sqrt(np.mean(x**2)))
    centered = x - a1
    a5 = float(np.sum(centered**3) / ((n - 1) * a3**3))
    a6 = float(np.sum(centered**4) / ((n - 1) * a3**4))
    return np.array([a1, a2, a3, a5, a6])


def parent_eemd_features(imfs, informative_index):
    """The per-IMF eemd_features from before the matrix form: the bitwise
    reference for row informative_index - 1 of eemd_features(imfs)."""
    if not 1 <= informative_index <= imfs.n_imfs:
        raise DomainError(
            f"informative index {informative_index} outside 1..{imfs.n_imfs}"
        )
    c = np.asarray(imfs.imfs[informative_index - 1], dtype=float)
    n = c.size
    total_energy = float(sum(np.sum(np.asarray(ci) ** 2) for ci in imfs.imfs))
    if total_energy == 0.0:
        raise DomainError("energy ratio undefined: all IMFs are zero")
    f1 = float(np.sum(c**2)) / total_energy
    f2 = float(np.max(c) - np.min(c))
    f3 = float(np.std(c, ddof=1))
    f4 = float(np.sqrt(np.mean(c**2)))
    if f4 == 0.0:
        raise DomainError("ratio features undefined for an all-zero IMF")
    f5 = float(np.max(c)) / f4
    centered = c - float(np.mean(c))
    f6 = float(np.sum(centered**3) / ((n - 1) * f4**3))
    f7 = float(np.sum(centered**4) / ((n - 1) * f4**4))
    return np.array([f1, f2, f3, f4, f5, f6, f7])


@st.composite
def imf_matrices(draw):
    """(k, n) matrices of 1-10 noise rows of 4-2000 samples, each row at its
    own scale in 1e-6..1e6."""
    k = draw(st.integers(1, 10))
    n = draw(st.integers(4, 2000))
    exponents = draw(st.lists(st.floats(-6.0, 6.0), min_size=k, max_size=k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.standard_normal((k, n)) * 10.0 ** np.asarray(exponents)[:, None]


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

    @settings(max_examples=200, deadline=None)
    @given(imf_matrices())
    def test_moments_match_parent_bitwise(self, signals):
        for x in signals:
            got = wpt_features(x, 1000.0)[[0, 1, 2, 4, 5]]
            assert got.tobytes() == parent_wpt_moments(x).tobytes()

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
            got = eemd_features(imfs)
            assert got.shape == (3, 7)
            for idx in (1, 2, 3):
                want = oracle_eemd_features(imfs.imfs, idx)
                assert np.allclose(got[idx - 1], want, rtol=1e-10, atol=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(imf_matrices())
    def test_rows_match_parent_bitwise(self, c):
        imfs = ImfSet(list(c), np.zeros(c.shape[1]))
        got = eemd_features(imfs)
        assert got.shape == (len(c), 7)
        for i in range(len(c)):
            assert got[i].tobytes() == parent_eemd_features(imfs, i + 1).tobytes()

    def test_energy_ratios_sum_to_one(self):
        imfs = self.make_imfs(4)
        total = sum(eemd_features(imfs)[:, 0])
        assert abs(total - 1.0) < 1e-12

    def test_residue_excluded_from_energy(self):
        c = np.sin(np.linspace(0, 20, 100))
        imfs = ImfSet([c], np.full(100, 100.0))
        assert eemd_features(imfs)[0, 0] == 1.0

    def test_peak_to_peak(self):
        c = np.array([-2.0, 0.5, 3.0, 1.0])
        vals = eemd_features(ImfSet([c], np.zeros(4)))[0]
        assert vals[1] == 5.0

    def test_crest_uses_signed_max(self):
        c = np.array([-3.0, 1.0, -1.0, 1.0])
        vals = eemd_features(ImfSet([c], np.zeros(4)))[0]
        rms = math.sqrt(3.0)
        assert abs(vals[4] - 1.0 / rms) < 1e-12

    @pytest.mark.parametrize("zero", [0, 1, 2])
    def test_zero_imf_rejected_as_by_parent(self, zero):
        imfs = self.make_imfs()
        imfs.imfs[zero] = np.zeros(128)
        with pytest.raises(DomainError):
            parent_eemd_features(imfs, zero + 1)
        with pytest.raises(DomainError):
            eemd_features(imfs)

    def test_all_zero_and_empty_sets_rejected(self):
        with pytest.raises(DomainError):
            eemd_features(ImfSet([np.zeros(8), np.zeros(8)], np.ones(8)))
        with pytest.raises(DomainError):
            eemd_features(ImfSet([], np.ones(8)))
