"""Feature vectors for classification.

The wavelet-packet path uses fourteen statistics (ten time-domain, four
frequency-domain) of the reconstructed informative packet; the decomposition
path uses seven time-domain statistics of the informative intrinsic mode
function.  Skewness and kurtosis are deliberately normalized by (N-1) times
powers of the RMS, not by central-moment conventions.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

WPT_FEATURE_NAMES = (
    "mean",
    "std",
    "rms",
    "peak",
    "skewness",
    "kurtosis",
    "crest_factor",
    "clearance_factor",
    "shape_factor",
    "impulse_factor",
    "mean_square_frequency",
    "one_step_autocorr",
    "frequency_center",
    "standard_frequency",
)

EEMD_FEATURE_NAMES = (
    "energy_ratio",
    "peak_to_peak",
    "std",
    "rms",
    "crest_factor",
    "skewness",
    "kurtosis",
)


def magnitude_spectrum(x, sample_rate_hz):
    """One-sided DFT magnitude spectrum.

    Forward transform is unnormalized; M = floor(len/2)+1 bins at
    f_k = k * Fs / len.  The frequency features are ratios of spectral sums,
    so the normalization cancels.
    """
    x = np.asarray(x, dtype=float)
    if x.size < 2:
        raise DomainError("need at least 2 samples for a spectrum")
    mags = np.abs(np.fft.rfft(x))
    freqs = np.arange(mags.size) * sample_rate_hz / x.size
    return freqs, mags


def wpt_features(x, sample_rate_hz):
    """The fourteen statistics of a reconstructed wavelet packet, as an array
    in WPT_FEATURE_NAMES order."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 4:
        raise DomainError("need at least 4 samples")
    a1 = float(np.mean(x))
    a2 = float(np.std(x, ddof=1))
    a3 = float(np.sqrt(np.mean(x**2)))
    a4 = float(np.max(np.abs(x)))
    if a3 == 0.0:
        raise DomainError("ratio features undefined for the all-zero signal")
    centered = x - a1
    a5 = float(np.sum(centered**3) / ((n - 1) * a3**3))
    a6 = float(np.sum(centered**4) / ((n - 1) * a3**4))
    a7 = a4 / a3
    mean_sqrt_abs = float(np.mean(np.sqrt(np.abs(x))))
    mean_abs = float(np.mean(np.abs(x)))
    a8 = a4 / mean_sqrt_abs**2
    a9 = a3 / mean_abs
    a10 = a4 / mean_abs
    freqs, mags = magnitude_spectrum(x, sample_rate_hz)
    total = float(np.sum(mags))
    if total == 0.0:
        raise DomainError("spectral features undefined for the all-zero signal")
    dt = 1.0 / sample_rate_hz
    a11 = float(np.sum(freqs**2 * mags) / total)
    a12 = float(np.sum(np.cos(2 * np.pi * freqs * dt) * mags) / total)
    a13 = float(np.sum(freqs * mags) / total)
    a14 = float(np.sum((freqs - a13) ** 2 * mags) / total)
    return np.array([a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14])


def eemd_features(imfs, informative_index):
    """The seven statistics of one intrinsic mode function, as an array in
    EEMD_FEATURE_NAMES order.

    informative_index is 1-based.  The energy-ratio denominator runs over
    the IMFs only; the residue is excluded.
    """
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
